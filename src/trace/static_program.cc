#include "static_program.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace stsim
{

namespace
{

/** Pick an instruction class for a body slot from the profile mix. */
InstClass
drawBodyClass(const BenchmarkProfile &p, Rng &rng)
{
    double r = rng.uniform();
    if ((r -= p.fracLoad) < 0)
        return InstClass::Load;
    if ((r -= p.fracStore) < 0)
        return InstClass::Store;
    if ((r -= p.fracIntMult) < 0)
        return InstClass::IntMult;
    if ((r -= p.fracFpAlu) < 0)
        return InstClass::FpAlu;
    if ((r -= p.fracFpMult) < 0)
        return InstClass::FpMult;
    return InstClass::IntAlu;
}

/** Pick a branch behaviour from the (normalized) profile mix. */
BranchBehavior
drawBehavior(const BenchmarkProfile &p, Rng &rng)
{
    double total = p.fracLoop + p.fracPattern + p.fracBiased +
                   p.fracChaotic;
    double r = rng.uniform() * total;
    if ((r -= p.fracLoop) < 0)
        return BranchBehavior::Loop;
    if ((r -= p.fracPattern) < 0)
        return BranchBehavior::Pattern;
    if ((r -= p.fracBiased) < 0)
        return BranchBehavior::Biased;
    return BranchBehavior::Chaotic;
}

} // namespace

StaticProgram::StaticProgram(const BenchmarkProfile &profile)
    : profile_(profile)
{
    profile_.validate();
    Rng rng(profile_.seed * 0x517c'c1b7'2722'0a95ull + 1);

    const std::uint32_t n = profile_.numBlocks;
    blocks_.resize(n);

    // Function entries spread evenly through the code.
    funcEntries_.reserve(profile_.numFuncs);
    for (std::uint32_t f = 0; f < profile_.numFuncs; ++f)
        funcEntries_.push_back(f * (n / profile_.numFuncs));

    double mean_len = std::max(2.0, profile_.meanBlockLen());
    double body_geom_p = 1.0 / std::max(1.0, mean_len - 1.0);
    unsigned body_cap = static_cast<unsigned>(4 * mean_len) + 8;

    Addr pc = kCodeBase;
    const Addr data_bytes =
        static_cast<Addr>(profile_.dataFootprintKB) * 1024;

    // Pooled array regions shared by all Stream ops: real programs
    // traverse a handful of live arrays, not one per load site. The
    // shared per-region cursor models cooperative traversal.
    for (std::uint8_t i = 0; i < kArrayRegions; ++i) {
        std::uint32_t max_region = static_cast<std::uint32_t>(
            std::min<Addr>(6 * 1024, data_bytes / 2));
        std::uint32_t size = static_cast<std::uint32_t>(
            rng.between(2 * 1024, max_region));
        Addr base = kDataBase + rng.below(data_bytes - size + 1);
        static const std::uint16_t strides[] = {4, 4, 4, 8, 8, 8};
        regions_[i] = {base, size, strides[rng.below(6)]};
    }
    regions_[kStackRegion] = {kStackBase, kStackRegionBytes};
    regions_[kHeapRegion] = {kDataBase,
                             static_cast<std::uint32_t>(data_bytes)};

    // About mean_len - 2 body ops per block; shrink_to_fit below
    // returns what is left over.
    ops_.reserve(static_cast<std::size_t>(n * mean_len));
    for (std::uint32_t i = 0; i < n; ++i) {
        StaticBlock &b = blocks_[i];
        b.pc = pc;
        b.opBegin = static_cast<std::uint32_t>(ops_.size());
        b.numOps = rng.geometric(body_geom_p, body_cap);
        for (std::uint32_t k = 0; k < b.numOps; ++k) {
            StaticOp &op = ops_.emplace_back();
            op.cls = drawBodyClass(profile_, rng);
            op.hasDest = op.cls != InstClass::Store &&
                         op.cls != InstClass::Nop;
            for (int s = 0; s < 2; ++s) {
                if (rng.chance(profile_.srcChance)) {
                    op.srcDist[s] = static_cast<std::uint8_t>(
                        1 + rng.geometric(profile_.depDistP, 62));
                }
            }
            if (isMemory(op.cls)) {
                double r = rng.uniform();
                if (r < profile_.fracStackAccess) {
                    op.memPattern = MemPattern::Stack;
                    op.region = kStackRegion;
                } else if (r < profile_.fracStackAccess +
                                   profile_.fracStreamAccess) {
                    op.memPattern = MemPattern::Stream;
                    op.region = static_cast<std::uint8_t>(
                        rng.below(kArrayRegions));
                } else {
                    op.memPattern = MemPattern::Random;
                    op.region = kHeapRegion;
                }
            }
        }

        // Terminator.
        double r = rng.uniform();
        if (r < profile_.fracJumpTerm) {
            b.term = TermKind::Jump;
        } else if (r < profile_.fracJumpTerm + profile_.fracCallTerm) {
            b.term = TermKind::Call;
        } else if (r < profile_.fracJumpTerm + profile_.fracCallTerm +
                           profile_.fracRetTerm) {
            b.term = TermKind::Return;
        } else {
            b.term = TermKind::CondBranch;
            // The branch consumes a freshly computed comparison (the
            // usual compare-and-branch idiom), which puts resolution
            // on the dataflow critical path.
            b.termSrcDist[0] = static_cast<std::uint8_t>(
                1 + rng.geometric(0.6, 7));
            if (rng.chance(0.4)) {
                b.termSrcDist[1] = static_cast<std::uint8_t>(
                    1 + rng.geometric(profile_.depDistP, 62));
            }
        }
        pc = b.endPc();
    }
    codeEnd_ = pc;
    ops_.shrink_to_fit();

    // Second pass: successors (needs all block count/addresses fixed).
    for (std::uint32_t i = 0; i < n; ++i) {
        StaticBlock &b = blocks_[i];
        b.fallthrough = (i + 1) % n;

        switch (b.term) {
          case TermKind::CondBranch: {
            b.behavior = drawBehavior(profile_, rng);
            switch (b.behavior) {
              case BranchBehavior::Loop: {
                // Backward branch: loop body of 1..16 blocks.
                std::uint32_t span = static_cast<std::uint32_t>(
                    rng.between(1, 16));
                b.takenTarget = i >= span ? i - span : 0;
                b.loopPeriod = static_cast<std::uint16_t>(rng.between(
                    static_cast<std::uint64_t>(profile_.loopPeriodMin),
                    static_cast<std::uint64_t>(profile_.loopPeriodMax)));
                break;
              }
              case BranchBehavior::Pattern:
                b.patternBits = static_cast<std::uint8_t>(
                    rng.between(2, 6));
                b.patternSalt = static_cast<std::uint32_t>(rng.next()) | 1;
                b.takenP = 0.5f;
                b.takenTarget = static_cast<std::uint32_t>(
                    (i + rng.between(2, 24)) % n);
                break;
              case BranchBehavior::Biased: {
                double miss = profile_.biasedMissMin +
                    rng.uniform() *
                        (profile_.biasedMissMax - profile_.biasedMissMin);
                b.takenP = static_cast<float>(
                    rng.chance(profile_.biasedTakenFrac) ? 1.0 - miss
                                                         : miss);
                b.takenTarget = static_cast<std::uint32_t>(
                    (i + rng.between(2, 24)) % n);
                break;
              }
              case BranchBehavior::Chaotic:
                b.takenP = static_cast<float>(profile_.chaoticTakenP);
                b.takenTarget = static_cast<std::uint32_t>(
                    (i + rng.between(2, 32)) % n);
                break;
            }
            break;
          }
          case TermKind::Jump:
            // Mostly local control transfers, occasionally far.
            if (rng.chance(0.8)) {
                b.takenTarget = static_cast<std::uint32_t>(
                    (i + rng.between(1, 32)) % n);
            } else {
                b.takenTarget = static_cast<std::uint32_t>(rng.below(n));
            }
            break;
          case TermKind::Call:
            b.takenTarget =
                funcEntries_[rng.below(funcEntries_.size())];
            break;
          case TermKind::Return:
            // Fallback target when the shadow call stack is empty.
            b.takenTarget = static_cast<std::uint32_t>(rng.below(n));
            break;
        }
        if (b.takenTarget == i) // avoid self-loop degenerate case
            b.takenTarget = b.fallthrough;
    }
}

std::uint32_t
StaticProgram::blockContaining(Addr pc) const
{
    stsim_assert(pc >= kCodeBase && pc < codeEnd_,
                 "pc %#llx outside code segment",
                 static_cast<unsigned long long>(pc));
    // Binary search on block start addresses (blocks are contiguous).
    std::uint32_t lo = 0, hi = numBlocks() - 1;
    while (lo < hi) {
        std::uint32_t mid = (lo + hi + 1) / 2;
        if (blocks_[mid].pc <= pc)
            lo = mid;
        else
            hi = mid - 1;
    }
    return lo;
}

} // namespace stsim
