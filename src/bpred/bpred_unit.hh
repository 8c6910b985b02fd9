/**
 * @file
 * Combined front-end branch prediction engine: direction predictor +
 * BTB + RAS with speculative global history and squash repair.
 */

#ifndef STSIM_BPRED_BPRED_UNIT_HH
#define STSIM_BPRED_BPRED_UNIT_HH

#include <cstdint>
#include <memory>

#include "bpred/btb.hh"
#include "bpred/direction_predictor.hh"
#include "bpred/ras.hh"
#include "common/fields.hh"
#include "common/types.hh"
#include "trace/instruction.hh"

namespace stsim
{

/** Construction parameters for a BpredUnit. */
struct BpredConfig
{
    enum class Kind { Gshare, Bimodal };

    Kind kind = Kind::Gshare;
    std::size_t predictorBytes = 8 * 1024; ///< paper baseline: 8 KB
    std::size_t btbEntries = 1024;         ///< Table 3
    std::size_t btbWays = 2;
    std::size_t rasEntries = 32;

    /** Fatal, naming the field, unless every field is in range. */
    void validate() const;
};

template <FieldsOf<BpredConfig> S, typename V>
void
visitFields(S &s, V &&v)
{
    v("kind", s.kind);
    v("predictorBytes", s.predictorBytes);
    v("btbEntries", s.btbEntries);
    v("btbWays", s.btbWays);
    v("rasEntries", s.rasEntries);
}

/**
 * Everything the front end learns about one control instruction at
 * prediction time, including the checkpoints needed to repair
 * speculative state when the instruction turns out to be on a wrong
 * path or mispredicted.
 */
struct BranchPrediction
{
    // Wide members first, flags and the byte-sized counter state last:
    // the struct packs to 40 bytes and is embedded in every DynInst,
    // so its size is hot-loop cache footprint.
    Addr predTarget = 0;   ///< 0 when the target is unknown (BTB miss)
    std::uint64_t histBefore = 0;       ///< global history checkpoint
    Ras::Checkpoint rasCp;              ///< RAS checkpoint
    DirectionPredictor::Prediction dir; ///< raw counter (cond only)
    bool predTaken = false;
    bool btbHit = false;
};

/**
 * The front-end prediction engine. The fetch stage calls predict() for
 * every control instruction (speculatively updating global history and
 * the RAS), commitUpdate() when a control instruction retires, and
 * squashRestore() when a mispredicted branch resolves.
 */
class BpredUnit
{
  public:
    explicit BpredUnit(const BpredConfig &cfg);

    /** Predict direction/target for @p inst; mutates speculative state. */
    BranchPrediction predict(const TraceInst &inst);

    /**
     * Train tables with the architectural outcome of a retiring control
     * instruction. @p pred must be the prediction returned at fetch.
     */
    void commitUpdate(const TraceInst &inst, const BranchPrediction &pred);

    /**
     * Repair speculative state after the branch predicted by @p pred
     * resolved as mispredicted: global history is rolled back to the
     * checkpoint plus the actual outcome, and the RAS is restored and
     * replayed for the branch itself.
     */
    void squashRestore(const TraceInst &inst,
                       const BranchPrediction &pred);

    /** Current speculative global history. */
    std::uint64_t specHistory() const { return specHist_; }

    /** The direction predictor (for confidence-estimator fallback). */
    DirectionPredictor &directionPredictor() { return *dirPred_; }

    const Btb &btb() const { return btb_; }

    const Ras &ras() const { return ras_; }

    /** Direction-predictor lookups (activity accounting). */
    Counter lookups() const { return lookups_; }

    /** Conditional-branch mispredict training events seen at commit. */
    Counter condUpdates() const { return condUpdates_; }
    Counter condMispredicts() const { return condMispredicts_; }

    /** Commit-time conditional misprediction rate. */
    double
    condMissRate() const
    {
        return condUpdates_ ? static_cast<double>(condMispredicts_) /
                                  condUpdates_
                            : 0.0;
    }

    /** Zero training/lookup counters (end of warmup); tables stay. */
    void resetStats()
    {
        lookups_ = condUpdates_ = condMispredicts_ = 0;
    }

    /**
     * Save or restore the whole front end: direction-predictor tables,
     * BTB, RAS, speculative history, and counters.
     */
    void state(serde::StateIO &io);

  private:
    std::unique_ptr<DirectionPredictor> dirPred_;
    Btb btb_;
    Ras ras_;
    std::uint64_t specHist_ = 0;
    Counter lookups_ = 0;
    Counter condUpdates_ = 0;
    Counter condMispredicts_ = 0;
};

} // namespace stsim

#endif // STSIM_BPRED_BPRED_UNIT_HH
