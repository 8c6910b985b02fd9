/**
 * @file
 * Simulator: owns and wires every subsystem for one run. This is the
 * library's primary entry point.
 *
 * Example:
 * @code
 *   SimConfig cfg;
 *   cfg.benchmark = "go";
 *   cfg.confKind = ConfKind::Bpru;
 *   cfg.specControl.mode = SpecControlMode::Selective;
 *   cfg.specControl.policy = ThrottlePolicy::byName("C2");
 *   SimResults r = Simulator(cfg).run();
 * @endcode
 */

#ifndef STSIM_CORE_SIMULATOR_HH
#define STSIM_CORE_SIMULATOR_HH

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bpred/bpred_unit.hh"
#include "cache/hierarchy.hh"
#include "confidence/estimator.hh"
#include "core/cancel.hh"
#include "core/sim_config.hh"
#include "core/sim_results.hh"
#include "pipeline/core.hh"
#include "power/power_model.hh"
#include "throttle/controller.hh"
#include "trace/workload.hh"

namespace stsim
{

/**
 * The record invariants every result meets, one line per violation
 * (empty when @p r is sound): commits reach cfg.maxInstructions and
 * overshoot it by less than the commit width; the per-unit energies
 * sum to energyJ; 0 <= wastedEnergyJ <= energyJ; and wrong-path counts
 * are at most the totals at fetch, decode, dispatch and issue. Debug
 * builds check every result the simulator collects.
 */
std::vector<std::string> checkInvariants(const SimConfig &cfg,
                                         const SimResults &r);

/** Owns one simulated machine and runs it to completion. */
class Simulator
{
  public:
    explicit Simulator(SimConfig cfg);
    ~Simulator();

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /**
     * Run warmup + measurement; returns the collected results. When
     * @p cancel is non-null it is polled every few thousand cycles
     * (warmup included) and a fired token throws JobCancelled; a null
     * token costs one never-taken branch per tick.
     */
    SimResults run(const CancelToken *cancel = nullptr);

    /**
     * One measured run that serves every config of @p cfgs: returns,
     * in input order, the results each config's own run() from this
     * machine would return, bit for bit. Like run(), finishes the
     * warmup first if needed.
     *
     * The configs must share this machine's warmupClassKey() (fatal
     * otherwise), so they differ only in maxInstructions and power.
     * The pipeline never reads the power model, so the machine ticks
     * once to the longest run length, collects each config's results
     * at the cycle where its own run would stop, and reads its energy
     * from a meter built from its own power parameters (one extra
     * PowerModel per distinct set, fed the same per-cycle activity).
     * A new power set can join only at the first measured cycle
     * (fatal otherwise). Each extra meter repeats the power model's
     * per-cycle work, which is 5-10% of a tick.
     */
    std::vector<SimResults> runSweep(const std::vector<SimConfig> &cfgs,
                                     const CancelToken *cancel = nullptr);

    /**
     * Run (or finish) the warmup phase only: train predictors/caches,
     * then reset the event counters exactly as run() would. Afterwards
     * the simulator sits at the first measured cycle -- the natural
     * point to saveSnapshot() and fork measurement sweeps from. No-op
     * when warmup has already completed.
     */
    void runWarmup(const CancelToken *cancel = nullptr);

    /**
     * Serialize the complete machine state (between ticks) into a
     * snapshot image. A fresh Simulator with an equivalent config that
     * restoreSnapshot()s this image and then run()s produces results
     * bitwise identical to an uninterrupted run.
     */
    std::string saveSnapshot() const;

    /**
     * Restore state written by saveSnapshot(). Fatals unless this
     * simulator's warmupClassKey() matches the snapshot's (same
     * benchmark, seed, machine, predictor and throttle config; only
     * the run length and power parameters may differ).
     */
    void restoreSnapshot(std::string_view image);

    /**
     * Canonical identity of the warmup-equivalence class of @p cfg:
     * the finalized config serialized as JSON with the fields that
     * cannot influence post-warmup architectural state masked out --
     * the measured-instruction budget and the power parameters (power
     * is purely observational and its accumulators are zeroed when
     * warmup ends). Two jobs with equal keys may share one warmup:
     * fork from one snapshot, or run as one runSweep().
     */
    static std::string warmupClassKey(const SimConfig &cfg);

    /** Access the core (tests/diagnostics). */
    Core &core() { return *core_; }
    const SimConfig &config() const { return cfg_; }
    BpredUnit &bpred() { return *bpred_; }
    MemoryHierarchy &memory() { return *memory_; }
    PowerModel &power() { return *power_; }

    /**
     * Shared cache of immutable synthetic programs, keyed by profile
     * name; avoids rebuilding the CFG for every experiment.
     */
    static std::shared_ptr<const StaticProgram>
    programFor(const std::string &benchmark);

  private:
    /** Where the run stands; serialized, so snapshots resume exactly. */
    enum class Phase : std::uint8_t
    {
        Warmup,  ///< still training (or never ticked)
        Measure, ///< stats reset done; measuring
    };

    /** Where one config's measured run stops, and what meters it. */
    struct Stop
    {
        const SimConfig *cfg;
        const PowerModel *meter;
    };

    /** The measurement loop (phase_ == Measure): ticks until every
     *  stop's maxInstructions has committed, collecting each stop's
     *  results at its own last cycle. */
    std::vector<SimResults> measure(const std::vector<Stop> &stops,
                                    const CancelToken *cancel);

    /** Results of the run so far, with energy from @p meter. */
    SimResults collect(const PowerModel &meter) const;

    /** The snapshot walk both saveSnapshot and restoreSnapshot run. */
    void state(serde::StateIO &io);

    SimConfig cfg_;
    Phase phase_ = Phase::Warmup;
    std::unique_ptr<Workload> workload_;
    std::unique_ptr<BpredUnit> bpred_;
    std::unique_ptr<ConfidenceEstimator> confidence_;
    std::unique_ptr<MemoryHierarchy> memory_;
    std::unique_ptr<PowerModel> power_;
    std::unique_ptr<SpeculationController> controller_;
    std::unique_ptr<Core> core_;
};

} // namespace stsim

#endif // STSIM_CORE_SIMULATOR_HH
