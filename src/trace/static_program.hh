/**
 * @file
 * Synthetic static program: a control-flow graph of basic blocks whose
 * branches carry persistent behavioural models. Walking the CFG yields
 * an instruction stream with learnable branch behaviour (for gshare and
 * the confidence estimators), realistic code locality (for the I-cache)
 * and a genuine alternate path at every branch (for wrong-path fetch).
 */

#ifndef STSIM_TRACE_STATIC_PROGRAM_HH
#define STSIM_TRACE_STATIC_PROGRAM_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hh"
#include "trace/instruction.hh"
#include "trace/profile.hh"

namespace stsim
{

/** Behavioural class of a static conditional branch. */
enum class BranchBehavior : std::uint8_t
{
    Loop,     ///< taken (period-1)/period times; backward target
    Pattern,  ///< deterministic function of recent global history
    Biased,   ///< iid Bernoulli with strong bias
    Chaotic,  ///< iid Bernoulli near 0.5 (unlearnable)
};

/** Terminator kind of a static basic block. */
enum class TermKind : std::uint8_t
{
    CondBranch,
    Jump,
    Call,
    Return,
};

/** Data-access pattern of a static memory instruction. */
enum class MemPattern : std::uint8_t
{
    Stack,   ///< small hot region, high temporal locality
    Stream,  ///< sequential strides through an array region
    Random,  ///< uniform within the data footprint
};

/**
 * A memory region body ops address. Each program holds one table of
 * these: the pooled stream arrays first, then the stack, then the heap.
 */
struct MemRegion
{
    Addr base = 0;             ///< absolute base address
    std::uint32_t size = 0;    ///< bytes
    std::uint16_t stride = 8;  ///< bytes per step (Stream)
};

/** A non-terminator instruction slot inside a static block. */
struct StaticOp
{
    InstClass cls = InstClass::IntAlu;
    std::uint8_t srcDist[2] = {0, 0};
    bool hasDest = true;

    // Memory slots only:
    MemPattern memPattern = MemPattern::Random;
    /** Index into the program's region table; a Stream op's is also
     *  the index of its region's mutable stream cursor. */
    std::uint8_t region = 0;
};

/** A static basic block: body ops plus one control-flow terminator. */
struct StaticBlock
{
    Addr pc = 0;                   ///< address of the first instruction
    std::uint32_t opBegin = 0;     ///< first body op in the program's ops
    std::uint32_t numOps = 0;      ///< body length (terminator excluded)

    std::uint32_t takenTarget = 0;   ///< successor block index if taken
    std::uint32_t fallthrough = 0;   ///< successor block index if not
    TermKind term = TermKind::CondBranch;

    /** Conditional branches consume the comparison result: source
     *  operand distances, like body ops (0 = none). */
    std::uint8_t termSrcDist[2] = {0, 0};

    // Conditional-branch behaviour:
    BranchBehavior behavior = BranchBehavior::Biased;
    std::uint16_t loopPeriod = 8;    ///< Loop trip count
    std::uint8_t patternBits = 4;    ///< Pattern: history bits consumed
    float takenP = 0.5f;             ///< Biased/Chaotic P(taken)
    std::uint32_t patternSalt = 1;   ///< Pattern: per-branch hash salt

    /** Address of the terminator instruction. */
    Addr termPc() const { return pc + 4 * numOps; }

    /** Address one past the last instruction. */
    Addr endPc() const { return pc + 4 * (numOps + 1); }
};

// Every program's blocks and ops stay resident for the life of the
// process: keep them small.
static_assert(sizeof(StaticOp) <= 8);
static_assert(sizeof(StaticBlock) <= 48);

/**
 * Immutable synthetic program built deterministically from a
 * BenchmarkProfile. Shared by the correct-path walker and any number of
 * wrong-path cursors.
 */
class StaticProgram
{
  public:
    explicit StaticProgram(const BenchmarkProfile &profile);

    const BenchmarkProfile &profile() const { return profile_; }

    const StaticBlock &block(std::uint32_t idx) const
    {
        return blocks_[idx];
    }

    std::uint32_t numBlocks() const
    {
        return static_cast<std::uint32_t>(blocks_.size());
    }

    /** Block index whose address range contains @p pc (by start addr). */
    std::uint32_t blockContaining(Addr pc) const;

    /** The body ops of block @p b, in order. */
    std::span<const StaticOp> ops(const StaticBlock &b) const
    {
        return std::span(ops_).subspan(b.opBegin, b.numOps);
    }

    /** Total body ops across all blocks. */
    std::size_t numOps() const { return ops_.size(); }

    /** Entry @p idx of the region table (StaticOp::region). */
    const MemRegion &region(std::uint8_t idx) const
    {
        return regions_[idx];
    }

    /** First code address. */
    Addr codeBase() const { return kCodeBase; }

    /** One past the last code address. */
    Addr codeEnd() const { return codeEnd_; }

    /** Entry block indices reachable via Call terminators. */
    const std::vector<std::uint32_t> &funcEntries() const
    {
        return funcEntries_;
    }

    static constexpr Addr kCodeBase = 0x0040'0000;
    static constexpr Addr kStackBase = 0x7ffe'0000;
    static constexpr Addr kDataBase = 0x1000'0000;
    static constexpr std::uint32_t kStackRegionBytes = 16 * 1024;

    /// @name Region table layout
    /// @{
    /** Pooled array regions shared by Stream ops (indexes 0..7), each
     *  with one mutable stream cursor in the walkers. */
    static constexpr std::uint8_t kArrayRegions = 8;
    static constexpr std::uint8_t kStackRegion = kArrayRegions;
    static constexpr std::uint8_t kHeapRegion = kArrayRegions + 1;
    static constexpr std::size_t kNumRegions = kArrayRegions + 2;
    /// @}

  private:
    BenchmarkProfile profile_;
    std::vector<StaticBlock> blocks_;
    std::vector<StaticOp> ops_;  ///< every block's body, in block order
    std::array<MemRegion, kNumRegions> regions_;
    std::vector<std::uint32_t> funcEntries_;
    Addr codeEnd_ = 0;
};

} // namespace stsim

#endif // STSIM_TRACE_STATIC_PROGRAM_HH
