/**
 * @file
 * Branch-confidence estimation interface with the paper's four-level
 * categorization (§4.2).
 */

#ifndef STSIM_CONFIDENCE_ESTIMATOR_HH
#define STSIM_CONFIDENCE_ESTIMATOR_HH

#include <cstddef>
#include <cstdint>

#include "bpred/direction_predictor.hh"
#include "common/types.hh"

namespace stsim
{

/**
 * Confidence assigned to a branch prediction, ordered from most to
 * least confident. LC and VLC are the "low confidence" levels that
 * trigger throttling heuristics.
 */
enum class ConfLevel : std::uint8_t
{
    VHC, ///< very-high confidence
    HC,  ///< high confidence
    LC,  ///< low confidence
    VLC, ///< very-low confidence
};

/** Short display name of a confidence level. */
const char *confLevelName(ConfLevel lvl);

/** True for the levels that trigger power-aware heuristics. */
constexpr bool
isLowConfidence(ConfLevel lvl)
{
    return lvl == ConfLevel::LC || lvl == ConfLevel::VLC;
}

/**
 * Abstract confidence estimator. estimate() is called at prediction
 * time; update() at branch resolution with whether the direction
 * prediction was correct.
 */
class ConfidenceEstimator
{
  public:
    virtual ~ConfidenceEstimator() = default;

    /**
     * Classify the prediction for the branch at @p pc.
     *
     * @param pc Branch address.
     * @param hist Global history at prediction time.
     * @param dir The direction predictor's raw output (for fallback
     *            schemes that inspect the saturating counter).
     * @param oracle_correct Whether the prediction will turn out
     *            correct; only the perfect estimator may consult this.
     */
    virtual ConfLevel estimate(Addr pc, std::uint64_t hist,
                               const DirectionPredictor::Prediction &dir,
                               bool oracle_correct) = 0;

    /** Train with the resolved prediction correctness. */
    virtual void update(Addr pc, std::uint64_t hist, bool correct) = 0;

    /** Hardware budget in bytes (Figure 7 sizing). */
    virtual std::size_t sizeBytes() const = 0;

    /**
     * Save or restore estimator tables (see core/state_serde.hh). The
     * default walks an empty section -- right for stateless estimators
     * (the oracle); table-backed ones override it.
     */
    virtual void state(serde::StateIO &io);
};

} // namespace stsim

#endif // STSIM_CONFIDENCE_ESTIMATOR_HH
