/**
 * @file
 * Tests for the public library layer: the shared program cache,
 * SimConfig finalization, experiment registry, suite sizes, relative
 * metrics and their averages, and Simulator::runSweep.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "core/cancel.hh"
#include "core/experiment.hh"
#include "core/job_serde.hh"
#include "core/parallel_harness.hh"
#include "core/report.hh"
#include "core/simulator.hh"
#include "core/suites.hh"
#include "obs/metrics.hh"

#include "run_jobs.hh"

using namespace stsim;

/// Eight threads racing through their first programFor calls build
/// each program once and all get one pointer per name. Defined first,
/// so in this binary no program has been built before it runs; the
/// build count is process-wide, so it holds in any order.
TEST(ProgramCache, ConcurrentFirstCallsBuildEachProgramOnce)
{
    const std::vector<std::string> &names = benchmarkNames();
    constexpr std::size_t kThreads = 8;
    std::vector<std::vector<const StaticProgram *>> got(
        kThreads, std::vector<const StaticProgram *>(names.size()));
    std::atomic<std::size_t> ready{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads) {
            }
            // Half the threads walk the names forward and half
            // backward: four race on each of two names at once.
            for (std::size_t k = 0; k < names.size(); ++k) {
                std::size_t n = t % 2 ? names.size() - 1 - k : k;
                got[t][n] = Simulator::programFor(names[n]).get();
            }
        });
    }
    for (std::thread &th : threads)
        th.join();

    for (std::size_t n = 0; n < names.size(); ++n) {
        ASSERT_NE(got[0][n], nullptr) << names[n];
        for (std::size_t t = 1; t < kThreads; ++t)
            EXPECT_EQ(got[t][n], got[0][n]) << names[n] << " thread " << t;
    }
    EXPECT_EQ(obs::Registry::instance().counter("sim.program_builds").value(),
              names.size());
    EXPECT_EQ(Simulator::cachedPrograms(), names.size());
}

/// An unknown name fatals before the cache sees it: no entry, no
/// build, and the cache keeps serving known names.
TEST(ProgramCache, UnknownNameAddsNoEntry)
{
    const std::size_t entries = Simulator::cachedPrograms();
    const std::uint64_t builds =
        obs::Registry::instance().counter("sim.program_builds").value();
    for (int i = 0; i < 2; ++i) {
        FatalCaptureScope capture;
        EXPECT_THROW(Simulator::programFor("no_such_benchmark"), FatalError);
    }
    EXPECT_EQ(Simulator::cachedPrograms(), entries);
    EXPECT_EQ(obs::Registry::instance().counter("sim.program_builds").value(),
              builds);
    EXPECT_NE(Simulator::programFor("go"), nullptr);
}

TEST(SimConfig, FinalizeIsIdempotent)
{
    SimConfig cfg;
    cfg.confKind = ConfKind::Bpru;
    cfg.finalize();
    double peak = cfg.power.peak(PUnit::Bpred);
    cfg.finalize();
    EXPECT_DOUBLE_EQ(cfg.power.peak(PUnit::Bpred), peak)
        << "double finalize must not re-scale power";
}

TEST(SimConfig, EstimatorBudgetChargesBpredPower)
{
    SimConfig plain;
    plain.finalize();
    SimConfig with_ce;
    with_ce.confKind = ConfKind::Bpru;
    with_ce.finalize();
    EXPECT_GT(with_ce.power.peak(PUnit::Bpred),
              plain.power.peak(PUnit::Bpred));
}

TEST(SimConfig, DepthPropagatesToDl1Latency)
{
    SimConfig cfg;
    cfg.pipelineDepth = 28;
    cfg.finalize();
    EXPECT_GT(cfg.memory.dl1ExtraLatency, 0u);
    EXPECT_EQ(cfg.memory.dl1ExtraLatency, cfg.core.extraDl1Latency);
}

namespace
{

template <typename T>
concept HasFields = requires(T &t) {
    visitFields(t, [](const char *, auto &, auto &&...) {});
};

/**
 * Calls @p fn(path, field, type max) for every unsigned integer field
 * of @p s and of the structs it holds, paths dotted ("memory.dl1.ways").
 */
template <typename S, typename Fn>
void
forEachUnsigned(S &s, const std::string &prefix, Fn &&fn)
{
    visitFields(s, [&](const char *key, auto &field, auto &&...) {
        using T = std::remove_cvref_t<decltype(field)>;
        const std::string path = prefix + key;
        if constexpr (std::is_unsigned_v<T> && !std::is_same_v<T, bool>)
            fn(path, field, std::uint64_t{std::numeric_limits<T>::max()});
        else if constexpr (HasFields<T>)
            forEachUnsigned(field, path + ".", fn);
    });
}

/** The machine fields: every unsigned field but run length and seed. */
std::vector<std::pair<std::string, std::uint64_t>>
machineFields(SimConfig cfg)
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    forEachUnsigned(cfg, "", [&](const std::string &path, auto &,
                                 std::uint64_t max) {
        if (path != "maxInstructions" && path != "warmupInstructions" &&
            path != "runSeed")
            out.emplace_back(path, max);
    });
    return out;
}

/** Runs @p cfg with @p path set to @p v: the fatal's message, or
 *  nullopt when the run completes. */
std::optional<std::string>
runWith(SimConfig cfg, const std::string &path, std::uint64_t v)
{
    forEachUnsigned(cfg, "", [&](const std::string &p, auto &field,
                                 std::uint64_t) {
        if (p == path)
            field = static_cast<std::remove_cvref_t<decltype(field)>>(v);
    });
    FatalCaptureScope capture;
    try {
        Simulator sim(cfg);
        sim.run();
        return std::nullopt;
    } catch (const FatalError &e) {
        return std::string(e.what());
    }
}

/** A C2 (BPRU) or PG (JRS) machine running 2,000 instructions. */
SimConfig
boundsConfig(const char *experiment)
{
    SimConfig cfg;
    cfg.benchmark = "bzip2";
    cfg.maxInstructions = 2'000;
    cfg.warmupInstructions = 0;
    Experiment::byName(experiment).applyTo(cfg);
    return cfg;
}

} // namespace

/// Every unsigned machine field has a bound that validate() states in
/// its fatal: at 0, 1, the bound and one past it, a run either
/// completes or fails with a fatal naming the field, and the bound
/// itself runs. The fields finalize() derives from pipelineDepth take
/// any value, because finalize() overwrites them.
TEST(SimConfig, EveryMachineFieldIsBounded)
{
    const std::set<std::string> derived = {
        "core.pipelineStages",   "core.fetchStages",
        "core.decodeStages",     "core.extraExecLatency",
        "core.extraDl1Latency",  "memory.dl1ExtraLatency"};
    for (const char *experiment : {"C2", "PG"}) {
        const SimConfig base = boundsConfig(experiment);
        std::set<std::string> unbounded;
        for (const auto &[path, max] : machineFields(base)) {
            SCOPED_TRACE(std::string(experiment) + " " + path);
            const std::string key = path.substr(path.rfind('.') + 1);
            const std::optional<std::string> atMax =
                runWith(base, path, max);
            if (!atMax) {
                unbounded.insert(path);
                continue;
            }
            ASSERT_NE(atMax->find(key), std::string::npos) << *atMax;
            const std::size_t open = atMax->rfind(", ");
            ASSERT_NE(open, std::string::npos) << *atMax;
            const std::uint64_t bound = std::stoull(atMax->substr(open + 2));
            for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                                    bound, bound + 1}) {
                SCOPED_TRACE(v);
                const std::optional<std::string> got =
                    runWith(base, path, v);
                if (got) {
                    EXPECT_NE(got->find(key), std::string::npos) << *got;
                }
                if (v == bound) {
                    EXPECT_FALSE(got) << *got;
                }
                if (v == bound + 1) {
                    EXPECT_TRUE(got) << "one past the bound ran";
                }
            }
        }
        EXPECT_EQ(unbounded, derived);
    }
}

/// With every latency and penalty at its bound, a job still commits
/// often enough that neither watchdog fires. The run is long enough
/// that a fixed run-away guard of 64 cycles an instruction would fire.
TEST(SimConfig, EveryLatencyAtItsBoundRuns)
{
    SimConfig cfg = boundsConfig("C2");
    cfg.maxInstructions = 10'000;
    cfg.warmupInstructions = 1'000;
    cfg.core.extraMispredictPenalty = kMaxLatency;
    cfg.core.btbMissPenalty = kMaxLatency;
    for (CacheConfig *c : {&cfg.memory.il1, &cfg.memory.dl1, &cfg.memory.l2})
        c->hitLatency = kMaxLatency;
    cfg.memory.memLatency = kMaxLatency;
    cfg.memory.tlbMissPenalty = kMaxLatency;
    Simulator sim(cfg);
    const SimResults r = sim.run();
    EXPECT_GE(r.core.committedInsts, cfg.maxInstructions);
    EXPECT_GT(r.core.cycles, 64 * cfg.maxInstructions + 1'000'000);
}

TEST(Experiment, RegistryKnowsPaperNames)
{
    EXPECT_EQ(Experiment::byName("baseline").confKind, ConfKind::None);

    Experiment c2 = Experiment::byName("C2");
    EXPECT_EQ(c2.confKind, ConfKind::Bpru);
    EXPECT_EQ(c2.specControl.mode, SpecControlMode::Selective);
    EXPECT_TRUE(
        c2.specControl.policy.action(ConfLevel::LC).noSelect);

    Experiment pg = Experiment::byName("PG");
    EXPECT_EQ(pg.confKind, ConfKind::Jrs);
    EXPECT_EQ(pg.specControl.mode, SpecControlMode::PipelineGating);
    EXPECT_EQ(pg.specControl.gatingThreshold, 2u);

    Experiment of = Experiment::byName("oracle-fetch");
    EXPECT_EQ(of.oracle, OracleMode::OracleFetch);
}

TEST(Suites, FigureSeriesSizes)
{
    // 8 baselines plus 8 jobs per experiment (fig3: A1..A6 + PG,
    // fig4: B1..B8 + PG, fig5: C1..C6 + PG), and so on per artifact.
    const std::pair<const char *, std::size_t> sizes[] = {
        {"golden", 18}, {"fig1", 32},   {"fig3", 64},  {"fig4", 80},
        {"fig5", 64},   {"fig6", 192},  {"fig7", 64},  {"table1", 8},
        {"table2", 8},  {"conf", 16},   {"conf-scan", 240},
        {"ablation", 48},
    };
    ASSERT_EQ(suiteNames().size(), std::size(sizes));
    for (const auto &[name, n] : sizes)
        EXPECT_EQ(suiteJobs(name).size(), n) << name;
    EXPECT_EQ(suiteJobs("fig3").back().experiment, "PG");
}

TEST(Experiment, ApplyToSetsOracleAndControl)
{
    SimConfig cfg;
    Experiment::byName("oracle-select").applyTo(cfg);
    EXPECT_EQ(cfg.core.oracle, OracleMode::OracleSelect);
    Experiment::byName("A5").applyTo(cfg);
    EXPECT_EQ(cfg.core.oracle, OracleMode::None);
    EXPECT_EQ(cfg.specControl.mode, SpecControlMode::Selective);
}

TEST(RelativeMetrics, Arithmetic)
{
    SimResults base;
    base.ipc = 1.0;
    base.avgPowerW = 50.0;
    base.energyJ = 10.0;
    base.edProduct = 100.0;
    SimResults exp = base;
    exp.ipc = 0.95;
    exp.avgPowerW = 40.0;
    exp.energyJ = 8.0;
    exp.edProduct = 90.0;

    RelativeMetrics m = RelativeMetrics::compute(base, exp);
    EXPECT_NEAR(m.speedup, 0.95, 1e-12);
    EXPECT_NEAR(m.powerSavings, 20.0, 1e-12);
    EXPECT_NEAR(m.energySavings, 20.0, 1e-12);
    EXPECT_NEAR(m.edImprovement, 10.0, 1e-12);
}

TEST(Profile, BenchmarkNamesMatchTable2)
{
    const auto &b = benchmarkNames();
    ASSERT_EQ(b.size(), 8u);
    EXPECT_EQ(b.front(), "compress");
    EXPECT_EQ(b.back(), "twolf");
}

TEST(Report, RelativeMetricsForExperiment)
{
    std::vector<SimJob> jobs;
    for (const char *exp : {"baseline", "A6"}) {
        SimJob j{SimConfig{}, exp};
        j.cfg.benchmark = "go";
        j.cfg.maxInstructions = 15'000;
        j.cfg.warmupInstructions = 3'000;
        Experiment::byName(exp).applyTo(j.cfg);
        jobs.push_back(std::move(j));
    }
    std::vector<SimResults> r = runJobs(jobs, 2);
    RelativeMetrics m = RelativeMetrics::compute(r[0], r[1]);
    // A6 (stall fetch on any low confidence) must save power at some
    // performance cost.
    EXPECT_GT(m.powerSavings, 0.0);
    EXPECT_LT(m.speedup, 1.0);
}

TEST(Report, AverageMetrics)
{
    MetricRows rows;
    RelativeMetrics a;
    a.speedup = 0.9;
    a.powerSavings = 10.0;
    a.energySavings = 6.0;
    a.edImprovement = 2.0;
    RelativeMetrics b;
    b.speedup = 1.0;
    b.powerSavings = 20.0;
    b.energySavings = 8.0;
    b.edImprovement = 4.0;
    rows.emplace_back("x", a);
    rows.emplace_back("y", b);
    RelativeMetrics avg = averageMetrics(rows);
    EXPECT_NEAR(avg.speedup, 0.95, 1e-12);
    EXPECT_NEAR(avg.powerSavings, 15.0, 1e-12);
    EXPECT_NEAR(avg.energySavings, 7.0, 1e-12);
    EXPECT_NEAR(avg.edImprovement, 3.0, 1e-12);
}

TEST(Simulator, CustomProfileOverridesBenchmark)
{
    BenchmarkProfile p;
    p.name = "custom-unit";
    p.numBlocks = 64;
    p.numFuncs = 8;
    p.seed = 3;
    SimConfig cfg;
    cfg.customProfile = p;
    cfg.maxInstructions = 10'000;
    cfg.warmupInstructions = 2'000;
    SimResults r = Simulator(cfg).run();
    EXPECT_GE(r.core.committedInsts, 10'000u);
}

TEST(Simulator, SharedProgramCacheReturnsSameProgram)
{
    auto a = Simulator::programFor("gcc");
    auto b = Simulator::programFor("gcc");
    EXPECT_EQ(a.get(), b.get());
}

TEST(Simulator, ConfKindNames)
{
    EXPECT_STREQ(confKindName(ConfKind::None), "none");
    EXPECT_STREQ(confKindName(ConfKind::Bpru), "bpru");
    EXPECT_STREQ(confKindName(ConfKind::Jrs), "jrs");
    EXPECT_STREQ(confKindName(ConfKind::Perfect), "perfect");
}

//
// Simulator::runSweep: one measured run serves several run lengths
// and power configurations of one warmup class.
//

namespace
{

SimConfig
sweepConfig(std::uint64_t insts)
{
    SimConfig cfg;
    cfg.benchmark = "go";
    Experiment::byName("C2").applyTo(cfg);
    cfg.maxInstructions = insts;
    cfg.warmupInstructions = 5'000;
    return cfg;
}

/** A result bit for bit, through its JSON encoding. */
std::string
bits(const SimResults &r)
{
    return serde::toJson(r);
}

} // namespace

TEST(RunSweep, MatchesScratchRunsInInputOrder)
{
    // Unsorted lengths with a duplicate, under three power sets: the
    // machine's own, a cc3 variant and cc0.
    std::vector<SimConfig> cfgs = {sweepConfig(6'000), sweepConfig(2'000),
                                   sweepConfig(4'000), sweepConfig(2'000),
                                   sweepConfig(4'000)};
    cfgs[1].power.idleFactor = 0.2;
    cfgs[1].power.frequencyHz = 2.0e9;
    cfgs[2].power.style = ClockGatingStyle::cc0;
    cfgs[4].power.idleFactor = 0.2;
    cfgs[4].power.frequencyHz = 2.0e9;

    Simulator sim(cfgs[0]);
    std::vector<SimResults> swept = sim.runSweep(cfgs);
    ASSERT_EQ(swept.size(), cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        EXPECT_EQ(bits(swept[i]), bits(Simulator(cfgs[i]).run()))
            << "config " << i;
        EXPECT_TRUE(checkInvariants(cfgs[i], swept[i]).empty());
    }
    EXPECT_NE(bits(swept[1]), bits(swept[3])) << "power must matter";
}

TEST(RunSweep, ConfigFromAnotherClassIsFatal)
{
    SimConfig other = sweepConfig(2'000);
    other.runSeed = 1234; // a different run: another warmup class
    Simulator sim(sweepConfig(2'000));
    FatalCaptureScope capture;
    EXPECT_THROW(sim.runSweep({sweepConfig(3'000), other}), FatalError);
}

TEST(RunSweep, NewPowerSetAfterTheFirstMeasuredCycleIsFatal)
{
    Simulator sim(sweepConfig(2'000));
    SimResults first = sim.run();
    SimConfig cc0 = sweepConfig(3'000);
    cc0.power.style = ClockGatingStyle::cc0;
    {
        FatalCaptureScope capture;
        EXPECT_THROW(sim.runSweep({cc0}), FatalError);
    }
    // The machine's own power set may go on measuring.
    std::vector<SimResults> more = sim.runSweep({sweepConfig(3'000)});
    EXPECT_EQ(bits(more.front()), bits(Simulator(sweepConfig(3'000)).run()));
    EXPECT_GE(more.front().core.committedInsts,
              first.core.committedInsts);
}

TEST(RunSweep, CancelledSweepDetachesItsMeters)
{
    // The meters die with the cancelled call; ticking on afterwards
    // must not feed them (a sanitizer build would flag the dangling
    // pointer). The run is long enough to reach a cancel poll.
    SimConfig cc0 = sweepConfig(20'000);
    cc0.power.style = ClockGatingStyle::cc0;
    Simulator sim(sweepConfig(20'000));
    sim.runWarmup();
    CancelToken token;
    token.cancel();
    EXPECT_THROW(sim.runSweep({sweepConfig(20'000), cc0}, &token),
                 JobCancelled);
    EXPECT_EQ(bits(sim.run()), bits(Simulator(sweepConfig(20'000)).run()));
}

TEST(RunSweep, HotCountersFlushOncePerMachine)
{
    // A memoized class of three run lengths is one machine: its
    // fetch-group count is that of its longest job run alone.
    obs::Counter &groups =
        obs::Registry::instance().counter("core.fetch_groups");
    std::vector<SimJob> jobs;
    for (std::uint64_t n : {2'000u, 6'000u, 4'000u})
        jobs.push_back({sweepConfig(n), "C2"});

    std::uint64_t before = groups.value();
    runJobs({jobs[1]}, 1);
    const std::uint64_t alone = groups.value() - before;

    RunOptions opts;
    opts.workers = 1;
    opts.memoizeWarmup = true;
    before = groups.value();
    runJobs(jobs, opts);
    EXPECT_GT(alone, 0u);
    EXPECT_EQ(groups.value() - before, alone);
}
