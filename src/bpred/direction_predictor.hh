/**
 * @file
 * Abstract conditional-branch direction predictor interface.
 */

#ifndef STSIM_BPRED_DIRECTION_PREDICTOR_HH
#define STSIM_BPRED_DIRECTION_PREDICTOR_HH

#include <cstddef>
#include <cstdint>

#include "common/types.hh"

namespace stsim
{

namespace serde
{
class StateIO;
} // namespace serde

/** Abstract PC(+history)-indexed taken/not-taken predictor. */
class DirectionPredictor
{
  public:
    virtual ~DirectionPredictor() = default;

    /**
     * Direction prediction plus the raw counter state that produced it;
     * the BPRU-style confidence estimator consumes the counter to label
     * weakly-biased predictions as low confidence on a table miss.
     */
    struct Prediction
    {
        bool taken = false;
        std::uint8_t counter = 0;    ///< raw saturating-counter value
        std::uint8_t counterMax = 3; ///< its saturation value
        bool weak() const
        {
            unsigned mid = counterMax / 2u;
            return counter == mid || counter == mid + 1;
        }
    };

    /** Predict the direction of the branch at @p pc under @p hist. */
    virtual Prediction predict(Addr pc, std::uint64_t hist) = 0;

    /** Train with the architectural outcome (commit time). */
    virtual void update(Addr pc, std::uint64_t hist, bool taken) = 0;

    /** Hardware budget in bytes (for Figure 7 sizing). */
    virtual std::size_t sizeBytes() const = 0;

    /** History bits this predictor consumes (0 for bimodal). */
    virtual unsigned historyBits() const = 0;

    /** Save or restore the table contents (see core/state_serde.hh). */
    virtual void state(serde::StateIO &io) = 0;
};

} // namespace stsim

#endif // STSIM_BPRED_DIRECTION_PREDICTOR_HH
