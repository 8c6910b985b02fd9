/**
 * @file
 * Confidence-estimator quality metrics, after Grunwald et al. (ISCA'98):
 * SPEC (coverage of mispredictions by the low-confidence label) and
 * PVN (precision of the low-confidence label).
 */

#ifndef STSIM_CONFIDENCE_METRICS_HH
#define STSIM_CONFIDENCE_METRICS_HH

#include <array>

#include "common/types.hh"
#include "confidence/estimator.hh"
#include "core/state_serde.hh"

namespace stsim
{

/**
 * Streaming confusion counts between confidence labels and prediction
 * outcomes. SPEC = fraction of incorrect predictions labeled low
 * confidence; PVN = fraction of low-confidence labels that turn out
 * incorrect.
 */
class ConfMetrics
{
  public:
    /** Record one resolved branch: its label and prediction outcome. */
    void
    record(ConfLevel lvl, bool correct)
    {
        auto i = static_cast<std::size_t>(lvl);
        if (correct)
            ++correctByLevel_[i];
        else
            ++missByLevel_[i];
    }

    /** Branches labeled LC or VLC. */
    Counter
    lowCount() const
    {
        return count(ConfLevel::LC) + count(ConfLevel::VLC);
    }

    /** Total resolved branches recorded. */
    Counter
    total() const
    {
        Counter t = 0;
        for (std::size_t i = 0; i < 4; ++i)
            t += correctByLevel_[i] + missByLevel_[i];
        return t;
    }

    /** Total mispredictions recorded. */
    Counter
    misses() const
    {
        Counter t = 0;
        for (std::size_t i = 0; i < 4; ++i)
            t += missByLevel_[i];
        return t;
    }

    /** SPEC: P(labeled low | mispredicted). */
    double
    spec() const
    {
        Counter m = misses();
        if (m == 0)
            return 0.0;
        Counter low_miss = missByLevel_[2] + missByLevel_[3];
        return static_cast<double>(low_miss) / m;
    }

    /** PVN: P(mispredicted | labeled low). */
    double
    pvn() const
    {
        Counter low = lowCount();
        if (low == 0)
            return 0.0;
        Counter low_miss = missByLevel_[2] + missByLevel_[3];
        return static_cast<double>(low_miss) / low;
    }

    /** Branches labeled with @p lvl. */
    Counter
    count(ConfLevel lvl) const
    {
        auto i = static_cast<std::size_t>(lvl);
        return correctByLevel_[i] + missByLevel_[i];
    }

    /** Mispredicted branches labeled with @p lvl. */
    Counter
    missCount(ConfLevel lvl) const
    {
        return missByLevel_[static_cast<std::size_t>(lvl)];
    }

    void
    state(serde::StateIO &io)
    {
        io.begin("conf_metrics");
        io.fixed("correct_by_level", correctByLevel_);
        io.fixed("miss_by_level", missByLevel_);
        io.end("conf_metrics");
    }

  private:
    std::array<Counter, 4> correctByLevel_{};
    std::array<Counter, 4> missByLevel_{};
};

} // namespace stsim

#endif // STSIM_CONFIDENCE_METRICS_HH
