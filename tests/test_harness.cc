/**
 * @file
 * Tests for the parallel experiment engine and the suites it runs:
 * the RunPool, in-order and bitwise-reproducible waves, baseline-
 * relative grouping and averaging, memoized waves (one measured sweep
 * per warmup class), and the record invariants and report of every
 * suite.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/table.hh"
#include "core/cancel.hh"
#include "core/experiment.hh"
#include "core/job_serde.hh"
#include "core/parallel_harness.hh"
#include "core/report.hh"
#include "core/results_sink.hh"
#include "core/run_pool.hh"
#include "core/simulator.hh"
#include "core/suites.hh"
#include "obs/metrics.hh"

#include "run_jobs.hh"

using namespace stsim;

namespace
{

SimConfig
tinyConfig()
{
    SimConfig cfg;
    cfg.maxInstructions = 8'000;
    cfg.warmupInstructions = 2'000;
    return cfg;
}

void
expectSameResults(const SimResults &a, const SimResults &b)
{
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.core.committedInsts, b.core.committedInsts);
    EXPECT_EQ(a.core.cycles, b.core.cycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.avgPowerW, b.avgPowerW);
    EXPECT_EQ(a.energyJ, b.energyJ);
    EXPECT_EQ(a.edProduct, b.edProduct);
    EXPECT_EQ(a.wastedEnergyJ, b.wastedEnergyJ);
    EXPECT_EQ(a.condMissRate, b.condMissRate);
    EXPECT_EQ(a.il1MissRate, b.il1MissRate);
    EXPECT_EQ(a.dl1MissRate, b.dl1MissRate);
    for (PUnit u : kAllPUnits) {
        auto i = static_cast<std::size_t>(u);
        EXPECT_EQ(a.unitEnergyJ[i], b.unitEnergyJ[i]) << punitName(u);
        EXPECT_EQ(a.unitWastedJ[i], b.unitWastedJ[i]) << punitName(u);
    }
}

} // namespace

TEST(RunPool, ExecutesEveryJobExactlyOnce)
{
    RunPool pool(4);
    EXPECT_EQ(pool.workers(), 4u);
    std::vector<int> hits(100, 0);
    pool.parallelFor(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(RunPool, SubmitAndWaitDrains)
{
    RunPool pool(2);
    std::atomic<int> count{0};
    for (int i = 0; i < 50; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 50);
}

TEST(RunPool, WaitRethrowsJobException)
{
    RunPool pool(2);
    pool.submit([] { throw std::runtime_error("job failed"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
}

TEST(RunPool, WorkerCountIsCapped)
{
    // Just above the cap, never thousands: an uncapped pool would
    // start every thread asked for.
    RunPool pool(300);
    EXPECT_EQ(pool.workers(), RunPool::kMaxWorkers);
    EXPECT_EQ(RunPool::kMaxWorkers, 256u);
}

TEST(RunPool, StsimJobsOverridesDefault)
{
    // Only defaultWorkers() runs: no pool is built from these values.
    unsetenv("STSIM_JOBS");
    const unsigned fallback = RunPool::defaultWorkers();
    EXPECT_GE(fallback, 1u); // never 0
    struct Case
    {
        const char *value;
        unsigned workers;
        bool warns;
    };
    const Case cases[] = {
        {"3", 3, false},
        {"256", 256, false},
        {"300", RunPool::kMaxWorkers, false},
        {"18446744073709551615", RunPool::kMaxWorkers, false},
        {"99999999999999999999", fallback, true}, // wider than 64 bits
        {"0", fallback, true},
        {"-1", fallback, true},
        {"+3", fallback, true},
        {" 3", fallback, true},
        {"3 ", fallback, true},
        {"", fallback, true},
        {"bogus", fallback, true},
    };
    for (const Case &c : cases) {
        ASSERT_EQ(setenv("STSIM_JOBS", c.value, 1), 0);
        testing::internal::CaptureStderr();
        const unsigned workers = RunPool::defaultWorkers();
        const std::string err = testing::internal::GetCapturedStderr();
        EXPECT_EQ(workers, c.workers) << "STSIM_JOBS='" << c.value << "'";
        EXPECT_EQ(err.find("ignoring bad STSIM_JOBS") != std::string::npos,
                  c.warns)
            << "STSIM_JOBS='" << c.value << "': " << err;
    }
    unsetenv("STSIM_JOBS");
}

TEST(RunJobs, ResultsCommittedInSubmissionOrder)
{
    std::vector<SimJob> jobs;
    for (const char *b : {"twolf", "go"}) {
        SimJob j;
        j.cfg = tinyConfig();
        j.cfg.benchmark = b;
        Experiment::byName("baseline").applyTo(j.cfg);
        j.experiment = "baseline";
        jobs.push_back(std::move(j));
    }
    std::vector<SimResults> r = runJobs(jobs, 2);
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r[0].benchmark, "twolf");
    EXPECT_EQ(r[1].benchmark, "go");
    EXPECT_EQ(r[0].experiment, "baseline");
    EXPECT_GE(r[0].core.committedInsts, 8'000u);
}

TEST(Report, RelativeGroupsCloseWithAverageRow)
{
    std::vector<SimJob> jobs;
    for (const char *exp : {"baseline", "A6"}) {
        for (const std::string &b : benchmarkNames()) {
            SimJob j{tinyConfig(), exp};
            j.cfg.benchmark = b;
            Experiment::byName(exp).applyTo(j.cfg);
            jobs.push_back(std::move(j));
        }
    }
    std::vector<SimResults> results = runJobs(jobs, 4);
    std::vector<MetricGroup> groups = relativeGroups(jobs, results);
    ASSERT_EQ(groups.size(), 1u);
    EXPECT_EQ(groups[0].key, "A6");
    const MetricRows &rows = groups[0].rows;
    ASSERT_EQ(rows.size(), benchmarkNames().size() + 1);
    EXPECT_EQ(rows.front().first, benchmarkNames().front());
    EXPECT_EQ(rows.back().first, "Average");

    RelativeMetrics avg = averageMetrics(rows);
    EXPECT_EQ(avg.speedup, rows.back().second.speedup);
    EXPECT_EQ(avg.powerSavings, rows.back().second.powerSavings);
    EXPECT_EQ(avg.energySavings, rows.back().second.energySavings);
    EXPECT_EQ(avg.edImprovement, rows.back().second.edImprovement);
}

/**
 * Golden determinism through the parallel engine: a throttled (C2)
 * and an unthrottled (baseline/C0) config must produce bitwise the
 * same SimResults whether run directly or through a runJobs wave --
 * the scheduler rework (ready bitmap, calendar writeback queue,
 * incremental controller) must be invisible at any worker count.
 */
TEST(RunJobs, BitwiseIdenticalToDirectRunsForC0AndC2)
{
    std::vector<SimJob> jobs;
    for (const char *exp : {"baseline", "C2"}) {
        SimJob j;
        j.cfg = tinyConfig();
        j.cfg.benchmark = "crafty";
        Experiment::byName(exp).applyTo(j.cfg);
        j.experiment = exp;
        jobs.push_back(std::move(j));
    }
    std::vector<SimResults> pooled = runJobs(jobs, 4);
    ASSERT_EQ(pooled.size(), 2u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SimResults direct = Simulator(jobs[i].cfg).run();
        direct.experiment = jobs[i].experiment;
        expectSameResults(direct, pooled[i]);
    }
    // The throttled run must actually have exercised the controller.
    EXPECT_GT(pooled[1].core.fetchThrottled, 0u);
    EXPECT_GT(pooled[1].core.noSelectSkips, 0u);
}

TEST(AverageMetrics, RejectsAverageOnlyInput)
{
    MetricRows rows;
    rows.emplace_back("Average", RelativeMetrics{});
    EXPECT_DEATH(averageMetrics(rows), "no rows to average");
}

//
// runJobs abort and cancellation paths. The deadlock hazard in all of
// these is the reorder gate: when a job or the sink throws, the commit
// frontier is stuck forever, so every gate-blocked worker must be
// released or pool.wait() would hang instead of rethrowing. Running
// them under TSan (tier-1 CI) is the point.
//

namespace
{

/** Pins STSIM_REORDER_WINDOW for one test, restoring on scope exit. */
struct ScopedEnv
{
    const char *name;

    ScopedEnv(const char *n, const char *v) : name(n)
    {
        setenv(n, v, 1);
    }

    ~ScopedEnv() { unsetenv(name); }
};

struct CountingSink : ResultsSink
{
    std::atomic<int> writes{0};

    void
    write(std::uint64_t, const SimResults &) override
    {
        ++writes;
    }
};

/** Throws out of the serialized commit path at a chosen index. */
struct ThrowAtSink : ResultsSink
{
    explicit ThrowAtSink(std::uint64_t at) : at_(at) {}

    void
    write(std::uint64_t index, const SimResults &) override
    {
        if (index == at_)
            throw std::runtime_error("sink failure");
    }

    std::uint64_t at_;
};

std::vector<SimJob>
tinyJobs(std::size_t n, std::uint64_t insts = 8'000)
{
    std::vector<SimJob> jobs;
    for (std::size_t i = 0; i < n; ++i) {
        SimJob j;
        j.cfg = tinyConfig();
        j.cfg.maxInstructions = insts;
        j.cfg.benchmark = "go";
        Experiment::byName("baseline").applyTo(j.cfg);
        j.experiment = "baseline";
        jobs.push_back(std::move(j));
    }
    return jobs;
}

} // namespace

TEST(RunJobsAbort, ThrowingSinkReleasesWorkersAtWindowOne)
{
    // Window 1 is the degenerate gate: every non-frontier worker is
    // blocked, so a throwing sink exercises the full release path.
    ScopedEnv env("STSIM_REORDER_WINDOW", "1");
    ThrowAtSink sink(1);
    EXPECT_THROW(runJobs(tinyJobs(8), sink, 4), std::runtime_error);
}

TEST(RunJobsAbort, ThrowingSinkReleasesWorkersAtWindowTwiceWorkers)
{
    // The production window (2*workers): workers run ahead, results
    // pile into `pending`, and the abort lands mid-drain.
    ScopedEnv env("STSIM_REORDER_WINDOW", "8");
    ThrowAtSink sink(2);
    EXPECT_THROW(runJobs(tinyJobs(12), sink, 4), std::runtime_error);
}

TEST(RunJobsAbort, PreCancelledTokenThrowsBeforeAnyCommit)
{
    CancelToken token;
    token.cancel();
    CountingSink sink;
    EXPECT_THROW(runJobs(tinyJobs(6), sink, 2, &token), JobCancelled);
    EXPECT_EQ(sink.writes.load(), 0);
}

TEST(RunJobsAbort, CancelReleasesGateBlockedWorkers)
{
    // Long jobs + window 1: the frontier job holds a worker and polls
    // the token; everyone else is gate-blocked. Firing the token
    // mid-run must surface JobCancelled promptly -- if the blocked
    // workers were not released this test would hang, not fail.
    ScopedEnv env("STSIM_REORDER_WINDOW", "1");
    std::vector<SimJob> jobs = tinyJobs(8, 50'000'000);
    CancelToken token;
    CountingSink sink;
    std::thread firer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        token.cancel();
    });
    EXPECT_THROW(runJobs(jobs, sink, 4, &token), JobCancelled);
    firer.join();
}

TEST(RunJobsAbort, NullTokenAndUnfiredTokenAreHarmless)
{
    // An unfired token must not perturb results: bitwise identical to
    // the no-token path (the poll is a never-taken branch).
    CancelToken token;
    std::vector<SimJob> jobs = tinyJobs(2);
    std::vector<SimResults> plain(jobs.size()), tokened(jobs.size());
    {
        struct VecSink : ResultsSink
        {
            std::vector<SimResults> &out;
            explicit VecSink(std::vector<SimResults> &o) : out(o) {}
            void
            write(std::uint64_t i, const SimResults &r) override
            {
                out[i] = r;
            }
        };
        VecSink a(plain), b(tokened);
        runJobs(jobs, a, 2, nullptr);
        runJobs(jobs, b, 2, &token);
    }
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expectSameResults(plain[i], tokened[i]);
}

//
// Memoized waves. Each warmup class runs on one machine: one warmup,
// then one measured sweep that collects every job of the class at its
// own run length, its energy read from a meter with its own power
// parameters. These waves have more classes than workers, and the
// jobs of each class vary run length, idle factor, clock frequency
// and clock-gating style, so classes run side by side and every
// sweep feeds extra meters.
//

namespace
{

constexpr std::size_t kSweepClasses = 5;
constexpr std::size_t kSweepLengths = 3;
constexpr std::size_t kSweepPowers = 3;
constexpr std::size_t kSweepPerClass = kSweepLengths * kSweepPowers;

/** Power set @p k of a class's jobs: the calibrated cc3 default, a
 *  cc3 variant with another idle factor and clock, or cc0. */
void
applyPower(SimConfig &cfg, std::size_t k)
{
    switch (k % kSweepPowers) {
      case 0:
        break;
      case 1:
        cfg.power.idleFactor = 0.2;
        cfg.power.frequencyHz = 2.0e9;
        break;
      case 2:
        cfg.power.style = ClockGatingStyle::cc0;
        break;
    }
}

/** 5 (benchmark, policy) warmup classes x 3 run lengths x 3 power
 *  sets, each class's jobs contiguous. The power sets rotate with the
 *  class, so a class's first job (whose config warms the machine) is
 *  not always on the default power set. */
std::vector<SimJob>
sweepJobs()
{
    const std::pair<const char *, const char *> classes[kSweepClasses] = {
        {"go", "C2"},
        {"go", "PG"},
        {"crafty", "C2"},
        {"gcc", "baseline"},
        {"twolf", "C2"},
    };
    std::vector<SimJob> jobs;
    for (std::size_t c = 0; c < kSweepClasses; ++c) {
        const auto &[bench, exp] = classes[c];
        for (std::size_t k = 0; k < kSweepPerClass; ++k) {
            SimJob j;
            j.cfg = tinyConfig();
            j.cfg.benchmark = bench;
            j.cfg.warmupInstructions = 30'000;
            j.cfg.maxInstructions = 2'000 + 1'000 * (k % kSweepLengths);
            applyPower(j.cfg, c + k / kSweepLengths);
            Experiment::byName(exp).applyTo(j.cfg);
            j.experiment = exp;
            jobs.push_back(std::move(j));
        }
    }
    return jobs;
}

/** Each committed record, bit-exact through its JSON encoding. */
struct RecordSink : ResultsSink
{
    std::vector<std::string> records;

    void
    write(std::uint64_t, const SimResults &r) override
    {
        records.push_back(serde::toJson(r));
    }
};

/** sweepJobs() run from scratch, once per test binary. */
const std::vector<std::string> &
sweepScratch()
{
    static const std::vector<std::string> records = [] {
        RecordSink scratch;
        runJobs(sweepJobs(), scratch, 4);
        return scratch.records;
    }();
    return records;
}

/**
 * Run @p jobs as a memoized wave on 4 workers and expect the scratch
 * wave's records, one warmup per class, and memo counters that grow by
 * one miss per class and one hit per other job.
 */
void
expectMemoizedMatchesScratch(const std::vector<SimJob> &jobs,
                             const std::vector<std::string> &scratch)
{
    obs::Counter &misses =
        obs::Registry::instance().counter("runjobs.warmup_memo_misses");
    obs::Counter &hits =
        obs::Registry::instance().counter("runjobs.warmup_memo_hits");
    const std::uint64_t misses0 = misses.value();
    const std::uint64_t hits0 = hits.value();

    RunOptions opts;
    opts.workers = 4;
    opts.memoizeWarmup = true;
    RecordSink memo;
    StreamStats stats = runJobs(jobs, memo, opts);

    ASSERT_EQ(memo.records.size(), scratch.size());
    for (std::size_t i = 0; i < scratch.size(); ++i)
        EXPECT_EQ(memo.records[i], scratch[i]) << "job " << i;
    EXPECT_EQ(stats.warmupsRun, kSweepClasses);
    EXPECT_EQ(misses.value() - misses0, kSweepClasses);
    EXPECT_EQ(hits.value() - hits0, jobs.size() - kSweepClasses);
}

} // namespace

TEST(MemoizedWave, ClassContiguousWaveMatchesScratchAtEveryWindow)
{
    const std::vector<SimJob> jobs = sweepJobs();
    ASSERT_EQ(sweepScratch().size(), kSweepClasses * kSweepPerClass);

    SCOPED_TRACE("default window");
    expectMemoizedMatchesScratch(jobs, sweepScratch());
    // At window 1 the classes run one after another; window 2 admits
    // one class more.
    for (const char *window : {"1", "2"}) {
        SCOPED_TRACE(std::string("window ") + window);
        ScopedEnv env("STSIM_REORDER_WINDOW", window);
        expectMemoizedMatchesScratch(jobs, sweepScratch());
    }
}

TEST(MemoizedWave, WrappedReorderWindowMatchesScratch)
{
    // "-1" used to wrap to SIZE_MAX, and so did an explicit SIZE_MAX:
    // the gate's `i < next + window` then overflowed after the first
    // commit and no further job could start. Both are now a window
    // no wider than the wave (the bad value is ignored with a warning).
    const std::vector<std::string> &scratch = sweepScratch();
    for (const char *window : {"-1", "18446744073709551615"}) {
        SCOPED_TRACE(std::string("window ") + window);
        ScopedEnv env("STSIM_REORDER_WINDOW", window);
        RecordSink plain;
        runJobs(sweepJobs(), plain, 4);
        EXPECT_EQ(plain.records, scratch);
        expectMemoizedMatchesScratch(sweepJobs(), scratch);
    }
}

TEST(MemoizedWave, RoundRobinWaveMatchesScratch)
{
    const std::vector<SimJob> contiguous = sweepJobs();
    ASSERT_EQ(sweepScratch().size(), contiguous.size());

    // A job's record does not depend on its position in the wave.
    std::vector<SimJob> jobs;
    std::vector<std::string> expected;
    for (std::size_t k = 0; k < kSweepPerClass; ++k) {
        for (std::size_t c = 0; c < kSweepClasses; ++c) {
            jobs.push_back(contiguous[c * kSweepPerClass + k]);
            expected.push_back(sweepScratch()[c * kSweepPerClass + k]);
        }
    }
    expectMemoizedMatchesScratch(jobs, expected);
}

TEST(MemoizedWave, CancelFromFirstWriteReleasesEveryWorker)
{
    // The token fires while other classes are mid-warmup or
    // mid-sweep: every worker must bail out, or this test hangs. At a
    // window of 4 the fifth class cannot start before the first,
    // which holds job 0, has committed, so the first write always
    // leaves work to cancel.
    ScopedEnv env("STSIM_REORDER_WINDOW", "4");
    struct CancelOnWrite : ResultsSink
    {
        explicit CancelOnWrite(CancelToken &t) : token(t) {}

        void
        write(std::uint64_t, const SimResults &) override
        {
            token.cancel();
        }

        CancelToken &token;
    };
    CancelToken token;
    CancelOnWrite sink(token);
    RunOptions opts;
    opts.workers = 4;
    opts.memoizeWarmup = true;
    opts.cancel = &token;
    EXPECT_THROW(runJobs(sweepJobs(), sink, opts), JobCancelled);
    EXPECT_TRUE(token.cancelled());
}

//
// Record invariants (checkInvariants): commits reach the run length
// and overshoot it by less than the commit width, per-unit energies
// sum to energyJ, wasted energy lies in [0, energyJ], and wrong-path
// counts stay within the totals -- for every record of every suite
// shortened to 3K measured / 500 warmup instructions, scratch and
// memoized, and of the power-variant sweep. Each suite's report
// renders from those records, the same from both waves.
//

namespace
{

std::vector<SimJob>
shortSuite(const std::string &name)
{
    std::vector<SimJob> jobs = suiteJobs(name);
    for (SimJob &j : jobs) {
        j.cfg.maxInstructions = 3'000;
        j.cfg.warmupInstructions = 500;
    }
    return jobs;
}

std::vector<SimResults>
expectInvariants(const std::vector<SimJob> &jobs, const RunOptions &opts)
{
    std::vector<SimResults> results = runJobs(jobs, opts);
    EXPECT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        for (const std::string &bad : checkInvariants(jobs[i].cfg,
                                                      results[i]))
            ADD_FAILURE() << "job " << i << ": " << bad;
    }
    return results;
}

std::string
report(const std::string &suite, const std::vector<SimJob> &jobs,
       const std::vector<SimResults> &results)
{
    std::ostringstream out;
    printReport(suite, jobs, results, out);
    return out.str();
}

/** The trimmed cells of the first row labelled @p label that @p text
 *  prints after @p title; empty when there is none. */
std::vector<std::string>
rowAfter(const std::string &text, const std::string &title,
         const std::string &label)
{
    const std::size_t from = text.find(title);
    if (from == std::string::npos)
        return {};
    const std::size_t at = text.find("| " + label + " ", from);
    if (at == std::string::npos)
        return {};
    std::istringstream line(text.substr(at, text.find('\n', at) - at));
    std::vector<std::string> cells;
    std::string cell;
    std::getline(line, cell, '|');
    while (std::getline(line, cell, '|')) {
        cell.erase(0, cell.find_first_not_of(' '));
        cell.erase(cell.find_last_not_of(' ') + 1);
        cells.push_back(cell);
    }
    return cells;
}

} // namespace

TEST(RecordInvariants, HoldForSuitesAndPowerSweep)
{
    std::map<std::string, std::string> reports;
    for (bool memoize : {false, true}) {
        SCOPED_TRACE(memoize ? "memoized" : "scratch");
        RunOptions opts;
        opts.workers = 4;
        opts.memoizeWarmup = memoize;
        for (const std::string &suite : suiteNames()) {
            SCOPED_TRACE(suite);
            std::vector<SimJob> jobs = shortSuite(suite);
            std::string text =
                report(suite, jobs, expectInvariants(jobs, opts));
            EXPECT_NE(text.find("+---"), std::string::npos) << text;
            auto [it, fresh] = reports.emplace(suite, text);
            if (!fresh) {
                EXPECT_EQ(it->second, text);
            }
        }
        expectInvariants(sweepJobs(), opts);
    }
}

TEST(SuiteReport, Tables1And2CarryCalibrationColumns)
{
    // table1 and table2 are the same 8 baseline jobs.
    std::vector<SimJob> jobs = shortSuite("table1");
    ASSERT_EQ(jobs.size(), 8u);
    std::vector<SimResults> results = runJobs(jobs, 4);

    const SimResults &r = results[3];
    const std::vector<std::string> wrong =
        rowAfter(report("table2", jobs, results), "Table 2 (cont.)",
                 r.benchmark);
    const std::vector<std::string> want = {
        r.benchmark,
        TextTable::pct(100 * r.core.wrongPathFetchFrac()),
        TextTable::pct(100.0 * r.core.dispatchedWrongPath /
                       r.core.dispatchedInsts),
        TextTable::pct(100.0 * r.core.issuedWrongPath / r.core.issuedInsts),
        TextTable::num(r.avgPowerW, 1) + " W",
        TextTable::pct(100 * r.wastedEnergyFrac())};
    EXPECT_EQ(wrong, want);

    const auto window = static_cast<std::size_t>(PUnit::Window);
    double activity = 0.0;
    for (const SimResults &each : results)
        activity += each.unitActivity[window];
    EXPECT_EQ(rowAfter(report("table1", jobs, results),
                       "per-unit activity factors", punitName(PUnit::Window)),
              (std::vector<std::string>{punitName(PUnit::Window),
                                        TextTable::num(activity / 8, 3)}));
}

TEST(SuiteReport, SameAtOneAndFourWorkers)
{
    // The suite records, and so the table, do not depend on the
    // worker count.
    std::vector<SimJob> jobs = shortSuite("fig1");
    std::vector<SimResults> one = runJobs(jobs, 1);
    std::vector<SimResults> four = runJobs(jobs, 4);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(serde::toJson(one[i]), serde::toJson(four[i])) << i;
    EXPECT_EQ(report("fig1", jobs, one), report("fig1", jobs, four));
}

TEST(RecordInvariants, ReportEachBrokenRule)
{
    SimConfig cfg = tinyConfig();
    SimResults r = Simulator(cfg).run();
    ASSERT_TRUE(checkInvariants(cfg, r).empty());

    SimResults bad = r;
    bad.core.committedInsts = cfg.maxInstructions - 1;
    bad.unitEnergyJ[0] *= 2.0;
    bad.wastedEnergyJ = bad.energyJ * 2.0;
    bad.core.issuedWrongPath = bad.core.issuedInsts + 1;
    EXPECT_EQ(checkInvariants(cfg, bad).size(), 4u);

    bad = r;
    bad.core.committedInsts = cfg.maxInstructions + cfg.core.commitWidth;
    EXPECT_EQ(checkInvariants(cfg, bad).size(), 1u);
}
