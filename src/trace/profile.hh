/**
 * @file
 * Per-benchmark synthetic workload parameters. The eight built-in
 * profiles model the SPECint95/2000 benchmarks of the paper's Table 2:
 * their dynamic conditional-branch density and their gshare-8KB
 * misprediction rate are the calibration targets.
 */

#ifndef STSIM_TRACE_PROFILE_HH
#define STSIM_TRACE_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/fields.hh"

namespace stsim
{

/**
 * Parameter set describing one synthetic benchmark. All probabilities
 * are in [0,1]; behaviour-mix fractions need not sum to 1 (they are
 * normalized at program-construction time).
 */
struct BenchmarkProfile
{
    std::string name;

    /// @name Table 2 targets (used for reporting/validation only)
    /// @{
    double targetMissRate = 0.10;  ///< gshare-8KB misprediction target
    double condBranchFrac = 0.10;  ///< dyn. cond. branches / instructions
    /// @}

    /// @name Static code structure
    /// @{
    std::uint32_t numBlocks = 1024;  ///< static basic blocks
    std::uint32_t numFuncs = 32;     ///< call-target entry points
    double fracJumpTerm = 0.10;      ///< block terminators: uncond jump
    double fracCallTerm = 0.05;      ///< block terminators: call
    double fracRetTerm = 0.05;       ///< block terminators: return
    /// @}

    /// @name Conditional-branch behaviour mix (per static branch)
    /// @{
    double fracLoop = 0.35;     ///< backward loop-exit branches
    double fracPattern = 0.20;  ///< history-correlated (learnable)
    double fracBiased = 0.30;   ///< iid Bernoulli with strong bias
    double fracChaotic = 0.15;  ///< iid Bernoulli near 0.5
    double loopPeriodMin = 3;   ///< min loop trip count
    double loopPeriodMax = 40;  ///< max loop trip count
    double biasedMissMin = 0.02; ///< min per-branch miss prob (biased)
    double biasedMissMax = 0.30; ///< max per-branch miss prob (biased)
    double chaoticTakenP = 0.5;  ///< P(taken) of chaotic branches
    /// @}

    /// @name Instruction mix (non-terminator slots)
    /// @{
    double fracLoad = 0.26;
    double fracStore = 0.12;
    double fracIntMult = 0.02;
    double fracFpAlu = 0.01;
    double fracFpMult = 0.005;
    /// @}

    /// @name Dependences
    /// @{
    double srcChance = 0.70;   ///< probability each source slot is used
    double depDistP = 0.25;    ///< geometric parameter for distance - 1
    /// @}

    /// @name Data memory behaviour
    /// @{
    std::uint32_t dataFootprintKB = 1024;
    double fracStackAccess = 0.30;   ///< hot small region
    double fracStreamAccess = 0.45;  ///< sequential strides
    std::uint32_t hotDataKB = 16;    ///< hot heap region (Random ops)
    double hotDataFrac = 0.98;       ///< Random accesses hitting it
    /// @}

    /// @name Shape correction factors (empirical calibration)
    /// @{
    /** Dynamic block-length multiplier compensating for the
     *  overrepresentation of loop blocks in the walk. */
    double blockLenScale = 1.30;
    /** Fraction of biased branches biased toward taken (cold-start
     *  friendly: cold PHT entries predict weakly taken). */
    double biasedTakenFrac = 0.75;
    /// @}

    std::uint64_t seed = 1;  ///< program-construction seed

    /// @name The largest values validate() accepts
    /// Custom profiles are untrusted input; these keep StaticProgram's
    /// storage and build time bounded and its fields unwrapped.
    /// @{
    static constexpr std::uint32_t kMaxBlocks = 65'536;  ///< 8x gcc
    /** Built-ins are 7.7-13.7. */
    static constexpr double kMaxMeanBlockLen = 64;
    /** StaticBlock::loopPeriod is 16 bits. */
    static constexpr double kMaxLoopPeriod = 65'535;
    /** The heap region's size is a 32-bit byte count. */
    static constexpr std::uint32_t kMaxDataFootprintKB = 4'194'303;
    /// @}

    /**
     * Mean total block length (body plus terminator) StaticProgram
     * builds to, so the dynamic conditional-branch density approximates
     * condBranchFrac = P(cond) / length. blockLenScale compensates for
     * loop blocks (always cond-terminated) repeating more often than
     * the static mix suggests.
     */
    double
    meanBlockLen() const
    {
        double p_cond = 1.0 - fracJumpTerm - fracCallTerm - fracRetTerm;
        return blockLenScale * p_cond / condBranchFrac;
    }

    /** Validate ranges; fatals on nonsense values, naming the field. */
    void validate() const;
};

template <FieldsOf<BenchmarkProfile> S, typename V>
void
visitFields(S &s, V &&v)
{
    v("name", s.name);
    v("targetMissRate", s.targetMissRate);
    v("condBranchFrac", s.condBranchFrac);
    v("numBlocks", s.numBlocks);
    v("numFuncs", s.numFuncs);
    v("fracJumpTerm", s.fracJumpTerm);
    v("fracCallTerm", s.fracCallTerm);
    v("fracRetTerm", s.fracRetTerm);
    v("fracLoop", s.fracLoop);
    v("fracPattern", s.fracPattern);
    v("fracBiased", s.fracBiased);
    v("fracChaotic", s.fracChaotic);
    v("loopPeriodMin", s.loopPeriodMin);
    v("loopPeriodMax", s.loopPeriodMax);
    v("biasedMissMin", s.biasedMissMin);
    v("biasedMissMax", s.biasedMissMax);
    v("chaoticTakenP", s.chaoticTakenP);
    v("fracLoad", s.fracLoad);
    v("fracStore", s.fracStore);
    v("fracIntMult", s.fracIntMult);
    v("fracFpAlu", s.fracFpAlu);
    v("fracFpMult", s.fracFpMult);
    v("srcChance", s.srcChance);
    v("depDistP", s.depDistP);
    v("dataFootprintKB", s.dataFootprintKB);
    v("fracStackAccess", s.fracStackAccess);
    v("fracStreamAccess", s.fracStreamAccess);
    v("hotDataKB", s.hotDataKB);
    v("hotDataFrac", s.hotDataFrac);
    v("blockLenScale", s.blockLenScale);
    v("biasedTakenFrac", s.biasedTakenFrac);
    v("seed", s.seed);
}

/**
 * The eight SPECint95/2000 benchmarks with the highest misprediction
 * rates, per the paper's Table 2 (compress, gcc, go, bzip2, crafty,
 * gzip, parser, twolf), modeled as synthetic profiles.
 */
const std::vector<BenchmarkProfile> &specProfiles();

/** The names of specProfiles(), in the same order. */
const std::vector<std::string> &benchmarkNames();

/** Look up a built-in profile by name; fatals when unknown. */
const BenchmarkProfile &findProfile(const std::string &name);

} // namespace stsim

#endif // STSIM_TRACE_PROFILE_HH
