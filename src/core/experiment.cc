#include "experiment.hh"

#include "common/logging.hh"

namespace stsim
{

void
Experiment::applyTo(SimConfig &cfg) const
{
    cfg.confKind = confKind;
    cfg.specControl = specControl;
    cfg.core.oracle = oracle;
}

namespace
{

/** Paper legend strings for the throttling experiments. */
std::string
legendFor(const ThrottlePolicy &p)
{
    const ThrottleAction &lc = p.action(ConfLevel::LC);
    const ThrottleAction &vlc = p.action(ConfLevel::VLC);
    auto fmt = [](const ThrottleAction &a) {
        std::string s = "fetch ";
        s += bandwidthLevelName(a.fetch);
        if (a.decode != BandwidthLevel::Full) {
            s += " + decode ";
            s += bandwidthLevelName(a.decode);
        }
        if (a.noSelect)
            s += " + noselect";
        return s;
    };
    return "LC: " + fmt(lc) + "; VLC: " + fmt(vlc);
}

Experiment
selective(const std::string &name)
{
    Experiment e;
    e.name = name;
    e.confKind = ConfKind::Bpru;
    e.specControl.mode = SpecControlMode::Selective;
    e.specControl.policy = ThrottlePolicy::byName(name);
    e.description = legendFor(e.specControl.policy);
    return e;
}

} // namespace

Experiment
Experiment::byName(const std::string &name)
{
    if (name == "baseline") {
        Experiment e;
        e.name = name;
        e.description = "no speculation control";
        return e;
    }
    if (name == "oracle-fetch" || name == "oracle-decode" ||
        name == "oracle-select") {
        Experiment e;
        e.name = name;
        e.description = "oracle speculation control (" + name + ")";
        e.oracle = name == "oracle-fetch"
                       ? OracleMode::OracleFetch
                       : (name == "oracle-decode"
                              ? OracleMode::OracleDecode
                              : OracleMode::OracleSelect);
        return e;
    }
    if (name == "PG" || name == "pipeline-gating") {
        Experiment e;
        e.name = "PG";
        e.description = "Pipeline Gating (JRS, MDC=12, threshold 2)";
        e.confKind = ConfKind::Jrs;
        e.specControl.mode = SpecControlMode::PipelineGating;
        e.specControl.gatingThreshold = 2;
        return e;
    }
    // A1..A6 / B1..B8 / C1..C6 selective-throttling policies.
    return selective(name);
}

} // namespace stsim
