/**
 * @file
 * Perfect (oracle) confidence estimator: labels every prediction VLC
 * when it will mispredict and VHC otherwise. Provides the upper bound
 * on what confidence-driven throttling could achieve.
 */

#ifndef STSIM_CONFIDENCE_PERFECT_HH
#define STSIM_CONFIDENCE_PERFECT_HH

#include "confidence/estimator.hh"

namespace stsim
{

/** Oracle estimator; zero hardware cost, perfect SPEC and PVN. */
class PerfectEstimator : public ConfidenceEstimator
{
  public:
    ConfLevel
    estimate(Addr /*pc*/, std::uint64_t /*hist*/,
             const DirectionPredictor::Prediction & /*dir*/,
             bool oracle_correct) override
    {
        return oracle_correct ? ConfLevel::VHC : ConfLevel::VLC;
    }

    void update(Addr /*pc*/, std::uint64_t /*hist*/,
                bool /*correct*/) override
    {
    }

    std::size_t sizeBytes() const override { return 0; }
};

} // namespace stsim

#endif // STSIM_CONFIDENCE_PERFECT_HH
