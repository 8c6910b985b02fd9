/**
 * @file
 * Wattch-style architecture-level power model: pipeline stages record
 * per-unit access counts each cycle; the model converts them to power
 * under the configured conditional-clocking style and accumulates
 * energy, split into useful and mis-speculated (wasted) parts.
 */

#ifndef STSIM_POWER_POWER_MODEL_HH
#define STSIM_POWER_POWER_MODEL_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "power/power_params.hh"
#include "power/units.hh"

namespace stsim
{

namespace serde
{
class StateWriter;
class StateReader;
} // namespace serde

/**
 * Cycle-driven power/energy accumulator.
 *
 * Usage per simulated cycle:
 *   beginCycle(); record(unit, n, n_wrong)...; endCycle();
 *
 * Under cc3 a unit with activity a (accesses clamped by its port
 * count) dissipates peak*(idle + (1-idle)*a); the clock network's
 * activity is the mean activity of all other units. Wasted-energy
 * attribution follows the paper's Table 1 accounting: each cycle a
 * unit's whole dissipation is split across its accesses, so wrong-path
 * work owns its proportional share (cycles with no accesses attribute
 * to nobody).
 *
 * Hot-path structure: per-unit peak*dt and 1/ports are precomputed,
 * the cc0/cc3 style is resolved once at construction (endCycle()
 * branches to the matching specialization), and endCycle() only
 * visits units actually recorded this cycle (dirty mask). A unit that was not
 * touched dissipates a constant per-cycle idle energy, which is
 * accounted lazily from its untouched-cycle count when results are
 * read, so idle cycles cost no floating-point work at all.
 *
 * The pipeline only writes to the model, so one cycle's activity can
 * be metered several ways: an attached meter (addMeter) closes each
 * cycle on the same per-unit counts under its own parameters. With no
 * meter attached that costs endCycle() one predictable branch.
 */
class PowerModel
{
  public:
    explicit PowerModel(const PowerParams &params);

    /** Start a new cycle. endCycle() self-clears, so this is a no-op
     *  kept for API symmetry. */
    void beginCycle() {}

    /**
     * Record @p count accesses to @p unit this cycle, of which
     * @p wrong_count were made on behalf of wrong-path instructions.
     */
    void
    record(PUnit unit, double count, double wrong_count = 0.0)
    {
        auto i = static_cast<std::size_t>(unit);
        stsim_dbg_assert(wrong_count <= count + 1e-9,
                     "wrong_count %f > count %f on %s", wrong_count,
                     count, punitName(unit));
        cycleCount_[i] += count;
        cycleWrong_[i] += wrong_count;
        dirty_ |= std::uint32_t{1} << i;
    }

    /** Close the cycle: convert activity to power and accumulate. The
     *  gating style is fixed at construction, so this is a perfectly
     *  predicted branch (and LTO-inlinable) instead of an indirect
     *  member call on the per-cycle path. */
    void
    endCycle()
    {
        if (!meters_.empty()) [[unlikely]]
            feedMeters();
        if (cc0_)
            endCycleImpl<ClockGatingStyle::cc0>();
        else
            endCycleImpl<ClockGatingStyle::cc3>();
    }

    /// @name Results
    /// @{
    Counter cycles() const { return cycles_; }
    /** Total energy so far, including lazy idle-cycle energy. */
    double totalEnergy() const;                              ///< joules
    double wastedEnergy() const { return totalWasted_; }     ///< joules
    double
    unitEnergy(PUnit u) const
    {
        auto i = static_cast<std::size_t>(u);
        return unitEnergyAcc_[i] +
               static_cast<double>(cycles_ - touchedCycles_[i]) *
                   idleCycleE_[i];
    }
    double unitWastedEnergy(PUnit u) const
    {
        return unitWasted_[static_cast<std::size_t>(u)];
    }
    /** Average power over all cycles so far (watts). */
    double avgPower() const;
    /** Elapsed simulated seconds. */
    double seconds() const
    {
        return static_cast<double>(cycles_) * params_.cycleSeconds();
    }
    const PowerParams &params() const { return params_; }
    /** Mean activity factor of a unit across the run (diagnostics). */
    double meanActivity(PUnit u) const;
    /// @}

    /** Zero all accumulated energy/cycle statistics (end of warmup). */
    void resetStats();

    /**
     * From the next cycle on, close every cycle on @p meter too, with
     * this cycle's per-unit counts: @p meter then accumulates exactly
     * what a model with its parameters fed the same record() stream
     * would. Both models must be at their first cycle (cycles() == 0,
     * fatal otherwise). The model keeps a raw pointer: clearMeters()
     * before @p meter dies.
     */
    void addMeter(PowerModel &meter);
    void clearMeters() { meters_.clear(); }

    /**
     * Checkpoint the energy accumulators (between ticks only: the
     * per-cycle scratch is empty then -- endCycle self-clears -- so
     * only the accumulators are state; the constants are rebuilt from
     * params at construction).
     */
    void saveState(serde::StateWriter &w) const;
    void loadState(serde::StateReader &r);

  private:
    template <ClockGatingStyle Style> void endCycleImpl();
    void feedMeters();

    PowerParams params_;

    /// @name Per-cycle scratch (consumed and cleared by endCycle)
    /// @{
    std::array<double, kNumPUnits> cycleCount_{};
    std::array<double, kNumPUnits> cycleWrong_{};
    std::uint32_t dirty_ = 0;
    /// @}

    /// @name Constants precomputed at construction
    /// @{
    bool cc0_ = false; ///< gating style resolved at construction
    std::array<double, kNumPUnits> invPorts_{};
    std::array<double, kNumPUnits> peakDt_{};    ///< peak * dt
    std::array<double, kNumPUnits> idleCycleE_{}; ///< untouched-cycle energy
    double idleFactor_ = 0.0;
    double activeFactor_ = 0.0;  ///< 1 - idleFactor
    double invMetered_ = 0.0;    ///< 1 / (kNumPUnits - 1)
    /// @}

    /// @name Accumulators
    /// @{
    std::array<double, kNumPUnits> unitEnergyAcc_{};
    std::array<double, kNumPUnits> unitWasted_{};
    std::array<double, kNumPUnits> activitySum_{};
    std::array<Counter, kNumPUnits> touchedCycles_{};
    Counter cycles_ = 0;
    double totalWasted_ = 0.0;
    /// @}

    std::vector<PowerModel *> meters_; ///< fed by endCycle (addMeter)
};

} // namespace stsim

#endif // STSIM_POWER_POWER_MODEL_HH
