#include "suites.hh"

#include <functional>
#include <utility>

#include "common/logging.hh"
#include "core/experiment.hh"
#include "trace/profile.hh"

namespace stsim
{

namespace
{

SimJob
makeJob(const std::string &bench, const Experiment &exp,
        const SimConfig &base)
{
    SimJob j;
    j.cfg = base;
    j.cfg.benchmark = bench;
    exp.applyTo(j.cfg);
    j.experiment = exp.name;
    return j;
}

/** The 8 baselines, then each experiment over the 8 benchmarks. */
void
appendMatrix(std::vector<SimJob> &jobs, const SimConfig &base,
             const std::vector<Experiment> &series)
{
    for (const std::string &bench : benchmarkNames())
        jobs.push_back(makeJob(bench, Experiment::byName("baseline"), base));
    for (const Experiment &exp : series)
        for (const std::string &bench : benchmarkNames())
            jobs.push_back(makeJob(bench, exp, base));
}

std::vector<SimJob>
matrixOf(const std::vector<Experiment> &series)
{
    std::vector<SimJob> jobs;
    appendMatrix(jobs, SimConfig{}, series);
    return jobs;
}

using JobsFn = std::function<std::vector<SimJob>()>;

/** A suite of appendMatrix() over the named experiments. */
JobsFn
matrix(std::vector<std::string> names)
{
    return [names] {
        std::vector<Experiment> series;
        for (const std::string &n : names)
            series.push_back(Experiment::byName(n));
        return matrixOf(series);
    };
}

std::vector<SimJob>
goldenSuite()
{
    SimConfig base;
    base.maxInstructions = 10'000;
    base.warmupInstructions = 2'000;

    std::vector<SimJob> jobs;
    for (const char *bench : {"crafty", "go", "twolf", "parser"})
        for (const char *exp : {"baseline", "A3", "C2", "PG"})
            jobs.push_back(makeJob(bench, Experiment::byName(exp), base));

    // Deep-pipeline rows: exercise the Figure 6 depth mapping through
    // the manifest/serde path too.
    SimConfig deep = base;
    deep.pipelineDepth = 24;
    jobs.push_back(makeJob("crafty", Experiment::byName("C2"), deep));
    jobs.push_back(makeJob("go", Experiment::byName("baseline"), deep));
    return jobs;
}

std::vector<SimJob>
fig6Suite()
{
    std::vector<SimJob> jobs;
    for (unsigned depth = 6; depth <= 28; depth += 2) {
        SimConfig base;
        base.pipelineDepth = depth;
        appendMatrix(jobs, base, {Experiment::byName("C2")});
    }
    return jobs;
}

std::vector<SimJob>
fig7Suite()
{
    std::vector<SimJob> jobs;
    for (std::size_t kb : {8, 16, 32, 64}) {
        for (const std::string &bench : benchmarkNames()) {
            // The baseline spends the whole budget on its gshare;
            // Selective Throttling splits it with the estimator.
            SimConfig base, st;
            base.bpred.predictorBytes = kb * 1024;
            st.bpred.predictorBytes = kb * 512;
            st.confBytes = kb * 512;
            jobs.push_back(
                makeJob(bench, Experiment::byName("baseline"), base));
            jobs.push_back(makeJob(bench, Experiment::byName("C2"), st));
        }
    }
    return jobs;
}

/** An estimator attached to the baseline machine, never throttling. */
SimJob
estimatorJob(const std::string &bench, ConfKind kind,
             const BpruEstimator::Params &params, std::string name)
{
    SimJob j;
    j.cfg.benchmark = bench;
    j.cfg.confKind = kind;
    j.cfg.bpruParams = params;
    j.experiment = std::move(name);
    return j;
}

std::vector<SimJob>
confSuite()
{
    std::vector<SimJob> jobs;
    for (const std::string &bench : benchmarkNames())
        for (ConfKind kind : {ConfKind::Bpru, ConfKind::Jrs})
            jobs.push_back(
                estimatorJob(bench, kind, {}, confKindName(kind)));
    return jobs;
}

std::vector<SimJob>
confScanSuite()
{
    std::vector<SimJob> jobs;
    for (unsigned inc : {2u, 3u, 4u, 5u, 6u}) {
        for (unsigned dec : {1u, 2u}) {
            for (unsigned alloc : {3u, 4u, 5u}) {
                const BpruEstimator::Params p{inc, dec, alloc};
                const std::string name = "bpru-" + std::to_string(inc) +
                                         "-" + std::to_string(dec) +
                                         "-" + std::to_string(alloc);
                for (const std::string &bench : benchmarkNames())
                    jobs.push_back(
                        estimatorJob(bench, ConfKind::Bpru, p, name));
            }
        }
    }
    return jobs;
}

/** A selective-throttling variant outside the paper's named set. */
Experiment
variant(const std::string &name, ThrottleAction lc, ThrottleAction vlc)
{
    Experiment e;
    e.name = name;
    e.confKind = ConfKind::Bpru;
    e.specControl.mode = SpecControlMode::Selective;
    e.specControl.policy = ThrottlePolicy::make(name, lc, vlc);
    return e;
}

std::vector<SimJob>
ablationSuite()
{
    constexpr BandwidthLevel F = BandwidthLevel::Full;
    constexpr BandwidthLevel S = BandwidthLevel::Stall;

    Experiment c2Perfect = Experiment::byName("C2");
    c2Perfect.name = "C2-perfect";
    c2Perfect.confKind = ConfKind::Perfect;
    return matrixOf({
        Experiment::byName("C2"),
        c2Perfect,
        Experiment::byName("C1"),
        variant("c2-vlcns", {BandwidthLevel::Quarter, F, true},
                {S, F, true}),
        variant("aon", {S, F, true}, {S, F, true}),
    });
}

const std::vector<std::pair<std::string, JobsFn>> &
registry()
{
    // The paper's PG is A7, B9 and C7 of Figures 3-5.
    static const std::vector<std::pair<std::string, JobsFn>> suites = {
        {"golden", goldenSuite},
        {"fig1", matrix({"oracle-fetch", "oracle-decode", "oracle-select"})},
        {"fig3", matrix({"A1", "A2", "A3", "A4", "A5", "A6", "PG"})},
        {"fig4",
         matrix({"B1", "B2", "B3", "B4", "B5", "B6", "B7", "B8", "PG"})},
        {"fig5", matrix({"C1", "C2", "C3", "C4", "C5", "C6", "PG"})},
        {"fig6", fig6Suite},
        {"fig7", fig7Suite},
        {"table1", matrix({})},
        {"table2", matrix({})},
        {"conf", confSuite},
        {"conf-scan", confScanSuite},
        {"ablation", ablationSuite},
    };
    return suites;
}

} // namespace

std::vector<SimJob>
suiteJobs(const std::string &name)
{
    for (const auto &[known, build] : registry()) {
        if (known == name)
            return build();
    }
    std::string known;
    for (const std::string &n : suiteNames())
        known += (known.empty() ? "" : ", ") + n;
    stsim_fatal("unknown suite '%s' (known: %s)", name.c_str(),
                known.c_str());
}

const std::vector<std::string> &
suiteNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const auto &entry : registry())
            v.push_back(entry.first);
        return v;
    }();
    return names;
}

} // namespace stsim
