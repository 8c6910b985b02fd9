#include "workload.hh"

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "core/state_serde.hh"

namespace stsim
{

namespace
{

/** Deterministic Pattern-branch outcome from history bits and a salt. */
bool
patternOutcome(std::uint64_t hist, std::uint8_t bits, std::uint32_t salt)
{
    std::uint64_t key = (hist & lowMask(bits)) * 0x9e3779b97f4a7c15ull;
    return hashMix(key ^ salt) & 1;
}

} // namespace

//
// BlockWalker
//

TraceInst
BlockWalker::terminator(const StaticProgram &prog, const StaticBlock &b,
                        bool cond_taken)
{
    TraceInst ti;
    ti.pc = b.termPc();
    ti.taken = true;
    ti.target = prog.block(b.takenTarget).pc;
    std::uint32_t next_block = b.takenTarget;
    switch (b.term) {
      case TermKind::CondBranch:
        ti.cls = InstClass::CondBranch;
        ti.srcDist[0] = b.termSrcDist[0];
        ti.srcDist[1] = b.termSrcDist[1];
        ti.taken = cond_taken;
        if (!cond_taken)
            next_block = b.fallthrough;
        break;
      case TermKind::Jump:
        ti.cls = InstClass::Jump;
        break;
      case TermKind::Call:
        ti.cls = InstClass::Call;
        if (callStack.size() >= kMaxCallDepth)
            callStack.erase(callStack.begin());
        callStack.push_back(b.fallthrough);
        break;
      case TermKind::Return:
        ti.cls = InstClass::Return;
        if (!callStack.empty()) {
            next_block = callStack.back();
            callStack.pop_back();
            ti.target = prog.block(next_block).pc;
        }
        break;
    }
    ti.npc = ti.taken ? ti.target : prog.block(b.fallthrough).pc;
    curBlock = next_block;
    opIdx = 0;
    return ti;
}

//
// Workload (correct path)
//

Workload::Workload(std::shared_ptr<const StaticProgram> program,
                   std::uint64_t run_seed)
    : program_(std::move(program)),
      rng_(run_seed ^ 0xabcd'ef01'2345'6789ull),
      loopCount_(program_->numBlocks(), 0),
      chaosWild_(program_->numBlocks(), 0),
      biasStreak_(program_->numBlocks(), 0),
      streamPos_(StaticProgram::kArrayRegions, 0)
{
    stsim_assert(program_ != nullptr, "null program");
}

bool
Workload::evalCondBranch(std::uint32_t block_idx)
{
    const StaticBlock &b = program_->block(block_idx);
    switch (b.behavior) {
      case BranchBehavior::Loop: {
        std::uint16_t &ctr = loopCount_[block_idx];
        if (++ctr >= b.loopPeriod) {
            ctr = 0;
            return false; // loop exit: fall through
        }
        return true; // backward taken: continue looping
      }
      case BranchBehavior::Pattern:
        return patternOutcome(globalHist_, b.patternBits, b.patternSalt);
      case BranchBehavior::Biased: {
        // The uncommon outcome arrives in short streaks (e.g. a run of
        // loop-carried exceptions) rather than as isolated flips:
        // misses cluster, which is what confidence estimators detect.
        std::uint8_t &streak = biasStreak_[block_idx];
        bool common = b.takenP >= 0.5f;
        double miss_p = common ? 1.0 - b.takenP : b.takenP;
        if (streak > 0) {
            --streak;
            return !common;
        }
        if (rng_.chance(miss_p / 4.0)) {
            streak = static_cast<std::uint8_t>(
                rng_.between(2, 6)); // this one + 2..6 more
            return !common;
        }
        return common;
      }
      case BranchBehavior::Chaotic: {
        // Regime-switching: chaotic branches alternate between a calm,
        // strongly-biased phase and a wild phase near p=0.5 (real
        // data-dependent branches misbehave in bursts, which is the
        // clustering confidence estimators detect).
        std::uint8_t &wild = chaosWild_[block_idx];
        if (wild) {
            if (rng_.chance(1.0 / 50))
                wild = 0;
            return rng_.chance(b.takenP);
        }
        if (rng_.chance(1.0 / 100))
            wild = 1;
        return rng_.chance(0.96);
      }
    }
    return false;
}

Addr
Workload::memAddress(const StaticOp &op, const MemRegion &rg)
{
    switch (op.memPattern) {
      case MemPattern::Stack:
        // Hot small region; word-granular uniform within it.
        return rg.base + 8 * rng_.below(rg.size / 8);
      case MemPattern::Stream: {
        // One cursor per array region, shared by its Stream ops.
        std::uint32_t &pos = streamPos_[op.region];
        Addr a = rg.base + pos;
        pos += rg.stride;
        if (pos + rg.stride > rg.size)
            pos = 0;
        return a;
      }
      case MemPattern::Random: {
        // Pointer-chasing style: mostly within a hot heap region,
        // occasionally anywhere in the footprint.
        const BenchmarkProfile &p = program_->profile();
        Addr hot_bytes = static_cast<Addr>(p.hotDataKB) * 1024;
        if (rng_.chance(p.hotDataFrac))
            return rg.base + 8 * rng_.below(hot_bytes / 8);
        return rg.base + 8 * rng_.below(rg.size / 8);
      }
    }
    return rg.base;
}

namespace
{

/** The RNG's engine state and the walker's position in its block: at
 *  most one past the block's last body op, which is where the
 *  terminator is emitted. */
void
walkerState(serde::StateIO &io, Rng &rng, const StaticProgram &prog,
            BlockWalker &walk)
{
    std::uint64_t s0 = rng.stateS0(), s1 = rng.stateS1();
    io.u64("rng_s0", s0);
    io.u64("rng_s1", s1);
    if (io.loading())
        rng.setState(s0, s1);
    io.u64("cur_block", walk.curBlock, prog.numBlocks() - 1);
    io.u64("op_idx", walk.opIdx, prog.block(walk.curBlock).numOps);
}

/** The shadow call stack of @p section's walker: return block indexes,
 *  no more of them than terminator() keeps. */
void
callStackState(serde::StateIO &io, const char *section,
               const StaticProgram &prog, BlockWalker &walk)
{
    io.vec("call_stack", walk.callStack, prog.numBlocks() - 1);
    if (io.loading() && walk.callStack.size() > BlockWalker::kMaxCallDepth)
        stsim_fatal("state: [%s] call_stack depth %zu exceeds %zu",
                    section, walk.callStack.size(),
                    BlockWalker::kMaxCallDepth);
}

} // namespace

void
Workload::state(serde::StateIO &io)
{
    io.begin("workload");
    walkerState(io, rng_, *program_, walk_);
    io.u64("global_hist", globalHist_);
    io.u64("generated", generated_);
    io.fixed("loop_count", loopCount_);
    io.fixed("chaos_wild", chaosWild_);
    io.fixed("bias_streak", biasStreak_);
    io.fixed("stream_pos", streamPos_);
    callStackState(io, "workload", *program_, walk_);
    io.end("workload");
}

//
// WrongPathCursor
//

WrongPathCursor::WrongPathCursor(const Workload &workload, Addr start_pc,
                                 std::uint64_t seed)
    : program_(&workload.program()),
      rng_(seed ^ 0x5bd1'e995'7b93'cd0full),
      specHist_(workload.globalHistory())
{
    walk_.curBlock = program_->blockContaining(start_pc);
    const StaticBlock &b = program_->block(walk_.curBlock);
    Addr off = (start_pc - b.pc) / 4;
    walk_.opIdx = static_cast<std::uint32_t>(off);
    // A fall-through resume address can point one past the terminator;
    // clamp onto the next block.
    if (walk_.opIdx > b.numOps) {
        walk_.curBlock = b.fallthrough;
        walk_.opIdx = 0;
    }
}

WrongPathCursor::WrongPathCursor(const Workload &workload)
    : program_(&workload.program()),
      rng_(0),
      specHist_(0)
{
}

void
WrongPathCursor::state(serde::StateIO &io)
{
    io.begin("wrong_cursor");
    walkerState(io, rng_, *program_, walk_);
    io.u64("spec_hist", specHist_);
    callStackState(io, "wrong_cursor", *program_, walk_);
    io.end("wrong_cursor");
}

Addr
WrongPathCursor::wrongPathMem(const StaticOp &op, const MemRegion &rg)
{
    // Stateless address approximation with the same locality class;
    // the architectural stream cursors are untouched.
    const BenchmarkProfile &p = program_->profile();
    Addr span = rg.size;
    if (op.memPattern == MemPattern::Random &&
        rng_.chance(p.hotDataFrac)) {
        span = static_cast<Addr>(p.hotDataKB) * 1024;
    } else if (op.memPattern == MemPattern::Stream) {
        span = rg.stride * 64u; // local window of the array
    }
    if (span > rg.size)
        span = rg.size;
    return rg.base + 8 * rng_.below(span / 8);
}

bool
WrongPathCursor::wrongPathTaken(std::uint32_t block_idx)
{
    const StaticBlock &b = program_->block(block_idx);
    bool taken = false;
    switch (b.behavior) {
      case BranchBehavior::Loop:
        taken = rng_.chance(1.0 - 1.0 / b.loopPeriod);
        break;
      case BranchBehavior::Pattern:
        taken = patternOutcome(specHist_, b.patternBits, b.patternSalt);
        break;
      case BranchBehavior::Biased:
      case BranchBehavior::Chaotic:
        taken = rng_.chance(b.takenP);
        break;
    }
    specHist_ = (specHist_ << 1) | (taken ? 1 : 0);
    return taken;
}

unsigned
WrongPathCursor::nextGroup(TraceInst *const *out, unsigned n)
{
    return walk_.fill(
        *program_, out, n,
        [this](const StaticOp &op, const MemRegion &rg) {
            return wrongPathMem(op, rg);
        },
        [this](std::uint32_t block_idx) {
            return wrongPathTaken(block_idx);
        });
}

TraceInst
WrongPathCursor::next()
{
    TraceInst ti;
    TraceInst *out = &ti;
    nextGroup(&out, 1);
    return ti;
}

} // namespace stsim
