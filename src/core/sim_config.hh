/**
 * @file
 * Top-level simulation configuration: workload, machine, predictor,
 * confidence estimator, speculation control and power model in one
 * value type.
 */

#ifndef STSIM_CORE_SIM_CONFIG_HH
#define STSIM_CORE_SIM_CONFIG_HH

#include <cstdint>
#include <optional>
#include <string>

#include "bpred/bpred_unit.hh"
#include "cache/hierarchy.hh"
#include "common/fields.hh"
#include "confidence/bpru.hh"
#include "pipeline/core_config.hh"
#include "power/power_params.hh"
#include "throttle/controller.hh"
#include "trace/profile.hh"

namespace stsim
{

/** Which confidence estimator the front end carries. */
enum class ConfKind : std::uint8_t
{
    None,    ///< no estimator (baseline / oracle runs)
    Bpru,    ///< BPRU-style tagged 4-level estimator (§4.3)
    Jrs,     ///< JRS miss-distance counters (Pipeline Gating)
    Perfect, ///< oracle estimator (upper bounds, tests)
};

/** Display name of a ConfKind. */
const char *confKindName(ConfKind k);

/** Everything needed to run one simulation. */
struct SimConfig
{
    /// @name Workload
    /// @{
    std::string benchmark = "go";        ///< Table 2 profile name
    /** When set, overrides `benchmark` with a user-supplied profile
     *  (custom workloads, calibration sweeps). */
    std::optional<BenchmarkProfile> customProfile;
    std::uint64_t maxInstructions = 2'000'000; ///< measured commits
    std::uint64_t warmupInstructions = 200'000;
    std::uint64_t runSeed = 42;
    /// @}

    /// @name Machine
    /// @{
    CoreConfig core;      ///< Table 3 widths/structures
    MemoryConfig memory;  ///< Table 3 hierarchy
    unsigned pipelineDepth = 14; ///< applied via applyPipelineDepth()
    /// @}

    /// @name Prediction & confidence
    /// @{
    BpredConfig bpred;              ///< 8 KB gshare default
    ConfKind confKind = ConfKind::None;
    std::size_t confBytes = 8 * 1024;
    unsigned jrsThreshold = 12;     ///< paper's MDC threshold
    BpruEstimator::Params bpruParams{};
    /// @}

    /// @name Speculation control
    /// @{
    SpecControlConfig specControl;  ///< throttling / gating
    /// @}

    /** Power model parameters (calibrated defaults). */
    PowerParams power = PowerParams::calibratedDefaults();

    /**
     * Resolve derived parameters: pipeline-depth mapping, DL1 extra
     * latency, bpred power scaling. Idempotent; the Simulator
     * constructor calls it automatically. Every call validates, so a
     * config that arrives finalized is checked too.
     */
    void finalize();

    /** Fatal, naming the field, unless every machine field is in
     *  range and the machine's parts fit together. */
    void validate() const;

    /** Set once finalize() has run (guards double power scaling). */
    bool finalized = false;
};

template <FieldsOf<SimConfig> S, typename V>
void
visitFields(S &s, V &&v)
{
    v("benchmark", s.benchmark);
    v("customProfile", s.customProfile);
    v("maxInstructions", s.maxInstructions);
    v("warmupInstructions", s.warmupInstructions);
    v("runSeed", s.runSeed);
    v("core", s.core);
    v("memory", s.memory);
    v("pipelineDepth", s.pipelineDepth);
    v("bpred", s.bpred);
    v("confKind", s.confKind);
    v("confBytes", s.confBytes);
    v("jrsThreshold", s.jrsThreshold);
    v("bpruParams", s.bpruParams);
    v("specControl", s.specControl);
    v("power", s.power);
    v("finalized", s.finalized);
}

} // namespace stsim

#endif // STSIM_CORE_SIM_CONFIG_HH
