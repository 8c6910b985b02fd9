/**
 * @file
 * Per-unit peak power parameters and clock-gating styles for the
 * Wattch-style power model.
 */

#ifndef STSIM_POWER_POWER_PARAMS_HH
#define STSIM_POWER_POWER_PARAMS_HH

#include <array>
#include <cstddef>

#include "common/fields.hh"
#include "power/units.hh"

namespace stsim
{

/**
 * Wattch conditional-clocking styles. The paper evaluates everything
 * under cc3: power scales linearly with port/unit usage and inactive
 * units still dissipate 10% of their peak.
 */
enum class ClockGatingStyle
{
    cc0, ///< no gating: every unit burns peak power every cycle
    cc3, ///< linear scaling with usage; 10% floor when idle
};

/**
 * Power-model parameters. Peak watts per unit are calibrated so the
 * baseline 8-wide, 14-stage configuration reproduces the paper's
 * Table 1 percentage breakdown (56.4 W total); ports define the
 * activity normalization (accesses per cycle at full tilt).
 */
struct PowerParams
{
    ClockGatingStyle style = ClockGatingStyle::cc3;

    /** Idle floor fraction under cc3 (Wattch: 10%). */
    double idleFactor = 0.10;

    /** Clock frequency (Table 3: 1200 MHz at 0.18um, 2.0 V). */
    double frequencyHz = 1.2e9;

    std::array<double, kNumPUnits> peakWatts{};
    std::array<double, kNumPUnits> ports{};

    double peak(PUnit u) const
    {
        return peakWatts[static_cast<std::size_t>(u)];
    }
    double portsOf(PUnit u) const
    {
        return ports[static_cast<std::size_t>(u)];
    }
    void setPeak(PUnit u, double w)
    {
        peakWatts[static_cast<std::size_t>(u)] = w;
    }
    void setPorts(PUnit u, double p)
    {
        ports[static_cast<std::size_t>(u)] = p;
    }

    /**
     * Calibrated defaults for the baseline core: peak watts fitted so
     * the baseline's measured activity factors (printed by
     * `stsim_runner report --suite table1`) reproduce Table 1's
     * breakdown.
     */
    static PowerParams calibratedDefaults();

    /**
     * Scale table-indexed front-end structures for Figure 7: peak
     * power of the bpred unit (predictor + confidence estimator)
     * follows an area-like sqrt law in total budget relative to the
     * 8 KB + 8 KB baseline.
     */
    void scaleBpredSize(std::size_t total_bytes);

    /** Cycle period in seconds. */
    double cycleSeconds() const { return 1.0 / frequencyHz; }
};

template <FieldsOf<PowerParams> S, typename V>
void
visitFields(S &s, V &&v)
{
    v("style", s.style);
    v("idleFactor", s.idleFactor);
    v("frequencyHz", s.frequencyHz);
    v("peakWatts", s.peakWatts);
    v("ports", s.ports);
}

} // namespace stsim

#endif // STSIM_POWER_POWER_PARAMS_HH
