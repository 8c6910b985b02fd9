/**
 * @file
 * Named experiment registry: the paper's configurations (baseline,
 * oracle fetch/decode/select, A1–A6, B1–B8, C1–C6, Pipeline Gating) as
 * reusable SimConfig transformations.
 */

#ifndef STSIM_CORE_EXPERIMENT_HH
#define STSIM_CORE_EXPERIMENT_HH

#include <string>

#include "core/sim_config.hh"

namespace stsim
{

/** One named machine configuration from the paper's evaluation. */
struct Experiment
{
    std::string name;
    std::string description; ///< paper legend, e.g. "LC: fetch/4, VLC: fetch=0"

    ConfKind confKind = ConfKind::None;
    SpecControlConfig specControl;
    OracleMode oracle = OracleMode::None;

    /** Impose this experiment's mechanism settings on @p cfg. */
    void applyTo(SimConfig &cfg) const;

    /**
     * Look up by name: "baseline", "oracle-fetch", "oracle-decode",
     * "oracle-select", "A1".."A6", "B1".."B8", "C1".."C6", "PG".
     * Fatals on unknown names.
     */
    static Experiment byName(const std::string &name);
};

} // namespace stsim

#endif // STSIM_CORE_EXPERIMENT_HH
