/**
 * @file
 * Workload walkers over a StaticProgram: the architectural (correct-
 * path) walker with persistent branch/memory state, and lightweight
 * wrong-path cursors the fetch unit runs after a misprediction.
 */

#ifndef STSIM_TRACE_WORKLOAD_HH
#define STSIM_TRACE_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "trace/instruction.hh"
#include "trace/static_program.hh"

namespace stsim
{

namespace serde
{
class StateWriter;
class StateReader;
} // namespace serde

/**
 * The cursor both generators walk the static program with: the current
 * block, the next body op in it and the shadow call stack. fill() owns
 * the one body-op loop and the one terminator switch; each generator
 * supplies only its two rules, the address of a memory op and the
 * outcome of a conditional branch.
 */
struct BlockWalker
{
    /** Maximum shadow call-stack depth; deeper calls drop the oldest
     *  frame. */
    static constexpr std::size_t kMaxCallDepth = 64;

    std::uint32_t curBlock = 0;
    std::uint32_t opIdx = 0;
    std::vector<std::uint32_t> callStack; ///< return block indexes

    /**
     * Fill up to @p n instructions through the pointers in @p out (one
     * per destination slot, so a fetch group lands straight in the
     * pipeline's slot pool with no copy). Stops early after emitting a
     * block terminator, so the return value m is in [1, n] and
     * out[m-1] is the only possible branch. @p memAddr(op) gives a
     * memory op's effective address; @p condTaken(block_idx) evaluates
     * a conditional branch and records its outcome in the caller's
     * history.
     */
    template <typename MemAddr, typename CondTaken>
    unsigned fill(const StaticProgram &prog, TraceInst *const *out,
                  unsigned n, MemAddr &&memAddr, CondTaken &&condTaken);

  private:
    /** Produce @p b's terminator (a conditional branch resolves to
     *  @p cond_taken) and advance to the successor block. */
    TraceInst terminator(const StaticProgram &prog, const StaticBlock &b,
                         bool cond_taken);
};

/**
 * Correct-path instruction generator. Owns all persistent behavioural
 * state: loop trip counters, the architectural global outcome history
 * consumed by Pattern branches, stream cursors of memory slots, and the
 * shadow call stack. Deterministic given (program, seed).
 */
class Workload
{
  public:
    /**
     * @param program Immutable synthetic program (shared).
     * @param run_seed Seed for this run's stochastic branch outcomes.
     */
    Workload(std::shared_ptr<const StaticProgram> program,
             std::uint64_t run_seed);

    /** Benchmark name from the underlying profile. */
    const std::string &name() const;

    /** Generate the next correct-path instruction (a one-instruction
     *  group). */
    TraceInst next();

    /**
     * The fetch unit's path: fill up to @p n instructions, stopping
     * after a block terminator so the caller's control handling runs
     * between groups (see BlockWalker::fill).
     */
    unsigned nextGroup(TraceInst *const *out, unsigned n);

    /** Architectural global branch-outcome history (LSB = most recent). */
    std::uint64_t globalHistory() const { return globalHist_; }

    const StaticProgram &program() const { return *program_; }

    /** Total correct-path instructions generated so far. */
    Counter generated() const { return generated_; }

    /**
     * Checkpoint the walker: RNG, block cursor, outcome history, and
     * every per-block/per-slot behavioural counter. Load validates the
     * vector sizes against the program, so a snapshot cannot silently
     * restore onto a different benchmark.
     */
    void saveState(serde::StateWriter &w) const;
    void loadState(serde::StateReader &r);

  private:
    /** Evaluate a conditional branch's outcome, mutating its state. */
    bool evalCondBranch(std::uint32_t block_idx);

    /** Compute the effective address of a memory slot (mutating). */
    Addr memAddress(const StaticOp &op);

    std::shared_ptr<const StaticProgram> program_;
    Rng rng_;
    BlockWalker walk_;
    std::uint64_t globalHist_ = 0;
    Counter generated_ = 0;
    std::vector<std::uint16_t> loopCount_;   // per block
    std::vector<std::uint8_t> chaosWild_;    // chaotic regime per block
    std::vector<std::uint8_t> biasStreak_;   // inverted-outcome streaks
    std::vector<std::uint32_t> streamPos_;   // per memory slot
};

/**
 * Wrong-path instruction generator. Walks the same static program from
 * the not-taken-in-reality successor of a mispredicted branch, using
 * stateless approximations of branch behaviour so the architectural
 * walker's state is never disturbed. Cheap to construct per
 * misprediction.
 */
class WrongPathCursor
{
  public:
    /**
     * @param workload The owning workload (for program and history).
     * @param start_pc First wrong-path fetch address (a block boundary
     *                 or mid-block fall-through address).
     * @param seed Per-cursor RNG seed (derive from branch seq).
     */
    WrongPathCursor(const Workload &workload, Addr start_pc,
                    std::uint64_t seed);

    /** Restore a cursor previously written by saveState. */
    WrongPathCursor(const Workload &workload, serde::StateReader &r);

    /** Generate the next wrong-path instruction (a one-instruction
     *  group). */
    TraceInst next();

    /** The fetch unit's path, as Workload::nextGroup. */
    unsigned nextGroup(TraceInst *const *out, unsigned n);

    /** Checkpoint the cursor (pairs with the restore constructor). */
    void saveState(serde::StateWriter &w) const;

  private:
    /** Stateless wrong-path address approximation for one memory op. */
    Addr wrongPathMem(const StaticOp &op);

    /** Stateless outcome approximation for a conditional branch;
     *  shifts it into the speculative history. */
    bool wrongPathTaken(std::uint32_t block_idx);

    const StaticProgram *program_;
    Rng rng_;
    BlockWalker walk_;
    std::uint64_t specHist_;
};

template <typename MemAddr, typename CondTaken>
inline unsigned
BlockWalker::fill(const StaticProgram &prog, TraceInst *const *out,
                  unsigned n, MemAddr &&memAddr, CondTaken &&condTaken)
{
    const StaticBlock &b = prog.block(curBlock);
    const auto nops = static_cast<std::uint32_t>(b.ops.size());
    std::uint32_t oi = opIdx;
    unsigned m = 0;
    for (; m < n && oi < nops; ++m, ++oi) {
        const StaticOp &op = b.ops[oi];
        TraceInst ti;
        ti.pc = b.pc + 4 * oi;
        ti.cls = op.cls;
        ti.srcDist[0] = op.srcDist[0];
        ti.srcDist[1] = op.srcDist[1];
        ti.hasDest = op.hasDest;
        ti.memAddr = isMemory(op.cls) ? memAddr(op) : 0;
        ti.npc = ti.pc + 4;
        *out[m] = ti;
    }
    opIdx = oi;
    if (m < n) { // room left in the group: emit the terminator
        const bool taken =
            b.term == TermKind::CondBranch && condTaken(curBlock);
        *out[m++] = terminator(prog, b, taken);
    }
    return m;
}

inline unsigned
Workload::nextGroup(TraceInst *const *out, unsigned n)
{
    const unsigned m = walk_.fill(
        *program_, out, n,
        [this](const StaticOp &op) { return memAddress(op); },
        [this](std::uint32_t block_idx) {
            const bool taken = evalCondBranch(block_idx);
            globalHist_ = (globalHist_ << 1) | (taken ? 1 : 0);
            return taken;
        });
    generated_ += m;
    return m;
}

inline TraceInst
Workload::next()
{
    TraceInst ti;
    TraceInst *out = &ti;
    nextGroup(&out, 1);
    return ti;
}

} // namespace stsim

#endif // STSIM_TRACE_WORKLOAD_HH
