/**
 * @file
 * Results of one simulation run plus the baseline-relative metrics the
 * paper reports (speedup, power/energy savings, E-D improvement).
 */

#ifndef STSIM_CORE_SIM_RESULTS_HH
#define STSIM_CORE_SIM_RESULTS_HH

#include <array>
#include <string>

#include "common/fields.hh"
#include "pipeline/core_stats.hh"
#include "power/units.hh"

namespace stsim
{

/** Everything measured in one run. */
struct SimResults
{
    std::string benchmark;
    std::string experiment;

    CoreStats core;

    /// @name Headline metrics
    /// @{
    double ipc = 0.0;
    double seconds = 0.0;     ///< simulated execution time
    double avgPowerW = 0.0;
    double energyJ = 0.0;
    double edProduct = 0.0;   ///< energy * delay (J*s)
    /// @}

    /// @name Power breakdown
    /// @{
    std::array<double, kNumPUnits> unitEnergyJ{};
    std::array<double, kNumPUnits> unitWastedJ{};
    /** Mean per-unit activity factors (calibration diagnostics). */
    std::array<double, kNumPUnits> unitActivity{};
    double wastedEnergyJ = 0.0; ///< total mis-speculation energy
    /// @}

    /// @name Prediction & confidence
    /// @{
    double condMissRate = 0.0;
    double spec = 0.0; ///< SPEC metric (0 when no estimator)
    double pvn = 0.0;  ///< PVN metric
    /// @}

    /// @name Memory
    /// @{
    double il1MissRate = 0.0;
    double dl1MissRate = 0.0;
    double l2MissRate = 0.0;
    /// @}

    /** Fraction of total energy attributed to mis-speculation. */
    double
    wastedEnergyFrac() const
    {
        return energyJ > 0.0 ? wastedEnergyJ / energyJ : 0.0;
    }
};

/** The per-unit arrays carry their CSV column stem (<stem>_<unit>). */
template <FieldsOf<SimResults> S, typename V>
void
visitFields(S &s, V &&v)
{
    v("benchmark", s.benchmark);
    v("experiment", s.experiment);
    v("core", s.core);
    v("ipc", s.ipc);
    v("seconds", s.seconds);
    v("avgPowerW", s.avgPowerW);
    v("energyJ", s.energyJ);
    v("edProduct", s.edProduct);
    v("unitEnergyJ", s.unitEnergyJ, "energyJ");
    v("unitWastedJ", s.unitWastedJ, "wastedJ");
    v("unitActivity", s.unitActivity, "act");
    v("wastedEnergyJ", s.wastedEnergyJ);
    v("condMissRate", s.condMissRate);
    v("spec", s.spec);
    v("pvn", s.pvn);
    v("il1MissRate", s.il1MissRate);
    v("dl1MissRate", s.dl1MissRate);
    v("l2MissRate", s.l2MissRate);
}

/** Baseline-relative improvements, in percent (paper's four plots). */
struct RelativeMetrics
{
    double speedup = 1.0;       ///< ratio (>1 is faster)
    double powerSavings = 0.0;  ///< %
    double energySavings = 0.0; ///< %
    double edImprovement = 0.0; ///< %

    /** Compute experiment-vs-baseline metrics. */
    static RelativeMetrics compute(const SimResults &baseline,
                                   const SimResults &experiment);
};

} // namespace stsim

#endif // STSIM_CORE_SIM_RESULTS_HH
