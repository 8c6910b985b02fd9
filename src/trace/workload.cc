#include "workload.hh"

#include <limits>

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
      streamPos_(program_->numArrayRegions(), 0)
{
    stsim_assert(program_ != nullptr, "null program");
}

const std::string &
Workload::name() const
{
    return program_->profile().name;
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
Workload::memAddress(const StaticOp &op)
{
    switch (op.memPattern) {
      case MemPattern::Stack:
        // Hot small region; word-granular uniform within it.
        return op.regionBase + 8 * rng_.below(op.regionSize / 8);
      case MemPattern::Stream: {
        std::uint32_t &pos = streamPos_[op.memStateIdx];
        Addr a = op.regionBase + pos;
        pos += op.stride;
        if (pos + op.stride > op.regionSize)
            pos = 0;
        return a;
      }
      case MemPattern::Random: {
        // Pointer-chasing style: mostly within a hot heap region,
        // occasionally anywhere in the footprint.
        const BenchmarkProfile &p = program_->profile();
        Addr hot_bytes = static_cast<Addr>(p.hotDataKB) * 1024;
        if (rng_.chance(p.hotDataFrac))
            return op.regionBase + 8 * rng_.below(hot_bytes / 8);
        return op.regionBase + 8 * rng_.below(op.regionSize / 8);
      }
    }
    return op.regionBase;
}

namespace
{

/** Restore a sized per-block/per-slot vector, validating its length
 *  and that every value fits @p T. */
template <typename T>
void
loadSizedVec(serde::StateReader &r, const char *key, std::vector<T> &out)
{
    std::vector<std::uint64_t> v =
        r.u64Vec(key, out.size(), std::numeric_limits<T>::max());
    for (std::size_t i = 0; i < v.size(); ++i)
        out[i] = static_cast<T>(v[i]);
}

/** Restore a walker's call stack; a Return jumps to its entries, so
 *  each must be a block of @p prog. */
void
loadCallStack(serde::StateReader &r, const StaticProgram &prog,
              std::vector<std::uint32_t> &out)
{
    std::vector<std::uint64_t> cs = r.u64Vec("call_stack");
    for (std::uint64_t blk : cs)
        if (blk >= prog.numBlocks())
            stsim_fatal("state: call_stack block %llu out of range "
                        "(program has %u blocks)",
                        static_cast<unsigned long long>(blk),
                        prog.numBlocks());
    out.assign(cs.begin(), cs.end());
}

/** Restore a walker's position in block @p blk: at most one past its
 *  last body op, which is where the terminator is emitted. */
std::uint32_t
loadOpIdx(serde::StateReader &r, const StaticProgram &prog,
          std::uint32_t blk)
{
    return static_cast<std::uint32_t>(
        r.u64("op_idx", prog.block(blk).ops.size()));
}

} // namespace

void
Workload::saveState(serde::StateWriter &w) const
{
    w.begin("workload");
    w.u64("rng_s0", rng_.stateS0());
    w.u64("rng_s1", rng_.stateS1());
    w.u64("cur_block", walk_.curBlock);
    w.u64("op_idx", walk_.opIdx);
    w.u64("global_hist", globalHist_);
    w.u64("generated", generated_);
    w.u64Vec("loop_count", loopCount_);
    w.u64Vec("chaos_wild", chaosWild_);
    w.u64Vec("bias_streak", biasStreak_);
    w.u64Vec("stream_pos", streamPos_);
    w.u64Vec("call_stack", walk_.callStack);
    w.end("workload");
}

void
Workload::loadState(serde::StateReader &r)
{
    r.begin("workload");
    std::uint64_t s0 = r.u64("rng_s0");
    std::uint64_t s1 = r.u64("rng_s1");
    rng_.setState(s0, s1);
    std::uint64_t cur_block = r.u64("cur_block");
    if (cur_block >= program_->numBlocks())
        stsim_fatal("state: workload cur_block %llu out of range "
                    "(program has %zu blocks)",
                    static_cast<unsigned long long>(cur_block),
                    static_cast<std::size_t>(program_->numBlocks()));
    walk_.curBlock = static_cast<std::uint32_t>(cur_block);
    walk_.opIdx = loadOpIdx(r, *program_, walk_.curBlock);
    globalHist_ = r.u64("global_hist");
    generated_ = r.u64("generated");
    loadSizedVec(r, "loop_count", loopCount_);
    loadSizedVec(r, "chaos_wild", chaosWild_);
    loadSizedVec(r, "bias_streak", biasStreak_);
    loadSizedVec(r, "stream_pos", streamPos_);
    loadCallStack(r, *program_, walk_.callStack);
    r.end("workload");
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
    if (walk_.opIdx > b.ops.size()) {
        walk_.curBlock = b.fallthrough;
        walk_.opIdx = 0;
    }
}

WrongPathCursor::WrongPathCursor(const Workload &workload,
                                 serde::StateReader &r)
    : program_(&workload.program()),
      rng_(0)
{
    r.begin("wrong_cursor");
    std::uint64_t s0 = r.u64("rng_s0");
    std::uint64_t s1 = r.u64("rng_s1");
    rng_.setState(s0, s1);
    std::uint64_t cur_block = r.u64("cur_block");
    if (cur_block >= program_->numBlocks())
        stsim_fatal("state: wrong-path cursor block %llu out of range",
                    static_cast<unsigned long long>(cur_block));
    walk_.curBlock = static_cast<std::uint32_t>(cur_block);
    walk_.opIdx = loadOpIdx(r, *program_, walk_.curBlock);
    specHist_ = r.u64("spec_hist");
    loadCallStack(r, *program_, walk_.callStack);
    r.end("wrong_cursor");
}

void
WrongPathCursor::saveState(serde::StateWriter &w) const
{
    w.begin("wrong_cursor");
    w.u64("rng_s0", rng_.stateS0());
    w.u64("rng_s1", rng_.stateS1());
    w.u64("cur_block", walk_.curBlock);
    w.u64("op_idx", walk_.opIdx);
    w.u64("spec_hist", specHist_);
    w.u64Vec("call_stack", walk_.callStack);
    w.end("wrong_cursor");
}

Addr
WrongPathCursor::wrongPathMem(const StaticOp &op)
{
    // Stateless address approximation with the same locality class;
    // the architectural stream cursors are untouched.
    const BenchmarkProfile &p = program_->profile();
    Addr span = op.regionSize;
    if (op.memPattern == MemPattern::Random &&
        rng_.chance(p.hotDataFrac)) {
        span = static_cast<Addr>(p.hotDataKB) * 1024;
    } else if (op.memPattern == MemPattern::Stream) {
        span = op.stride * 64u; // local window of the array
    }
    if (span > op.regionSize)
        span = op.regionSize;
    return op.regionBase + 8 * rng_.below(span / 8);
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
        [this](const StaticOp &op) { return wrongPathMem(op); },
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
