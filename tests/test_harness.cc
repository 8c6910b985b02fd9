/**
 * @file
 * Tests for the experiment harness and the parallel experiment engine:
 * baseline caching and invalidation, suite averaging, the RunPool,
 * thread-count-independent (bitwise-identical) matrix results, and the
 * warmup scheduling of memoized waves.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/cancel.hh"
#include "core/harness.hh"
#include "core/job_serde.hh"
#include "core/parallel_harness.hh"
#include "core/results_sink.hh"
#include "core/run_pool.hh"
#include "core/simulator.hh"
#include "obs/metrics.hh"

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

TEST(RunPool, StsimJobsOverridesDefault)
{
    ASSERT_EQ(setenv("STSIM_JOBS", "3", 1), 0);
    EXPECT_EQ(RunPool::defaultWorkers(), 3u);
    ASSERT_EQ(setenv("STSIM_JOBS", "bogus", 1), 0);
    EXPECT_GE(RunPool::defaultWorkers(), 1u); // falls back, never 0
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

TEST(Harness, BaselineInvalidatedOnBaseConfigMutation)
{
    Harness h(tinyConfig());
    const SimResults &before = h.baseline("go");
    Counter committed = before.core.committedInsts;
    EXPECT_GE(committed, 8'000u);
    EXPECT_LT(committed, 16'000u);

    // Mutable access invalidates every cached baseline.
    h.baseConfig().maxInstructions = 16'000;
    const SimResults &after = h.baseline("go");
    EXPECT_GE(after.core.committedInsts, 16'000u);
}

TEST(Harness, ComputeBaselinesFillsCache)
{
    Harness h(tinyConfig());
    h.computeBaselines(2);
    // Every subsequent baseline() is a cache hit: same object both
    // times, with no invalidation in between.
    for (const std::string &b : Harness::benchmarks()) {
        const SimResults &a = h.baseline(b);
        EXPECT_EQ(&a, &h.baseline(b));
        EXPECT_EQ(a.benchmark, b);
    }
}

TEST(Harness, RunSuiteAppendsAverageRow)
{
    Harness h(tinyConfig());
    auto rows = h.runSuite(Experiment::byName("A6"));
    ASSERT_EQ(rows.size(), Harness::benchmarks().size() + 1);
    EXPECT_EQ(rows.back().first, "Average");

    RelativeMetrics avg = averageMetrics(rows);
    EXPECT_EQ(avg.speedup, rows.back().second.speedup);
    EXPECT_EQ(avg.powerSavings, rows.back().second.powerSavings);
    EXPECT_EQ(avg.energySavings, rows.back().second.energySavings);
    EXPECT_EQ(avg.edImprovement, rows.back().second.edImprovement);
}

TEST(Harness, MatrixIsWorkerCountIndependent)
{
    std::vector<Experiment> exps = {Experiment::byName("A5"),
                                    Experiment::byName("PG")};

    Harness serial(tinyConfig());
    auto one = serial.runMatrix(exps, 1);
    Harness parallel(tinyConfig());
    auto many = parallel.runMatrix(exps, 4);

    ASSERT_EQ(one.size(), many.size());
    for (std::size_t e = 0; e < one.size(); ++e) {
        ASSERT_EQ(one[e].size(), many[e].size());
        for (std::size_t r = 0; r < one[e].size(); ++r) {
            EXPECT_EQ(one[e][r].first, many[e][r].first);
            const RelativeMetrics &a = one[e][r].second;
            const RelativeMetrics &b = many[e][r].second;
            EXPECT_EQ(a.speedup, b.speedup);
            EXPECT_EQ(a.powerSavings, b.powerSavings);
            EXPECT_EQ(a.energySavings, b.energySavings);
            EXPECT_EQ(a.edImprovement, b.edImprovement);
        }
    }
    // The underlying baselines must match bitwise, not just the
    // derived percentages.
    for (const std::string &b : Harness::benchmarks())
        expectSameResults(serial.baseline(b), parallel.baseline(b));
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
    std::vector<std::pair<std::string, RelativeMetrics>> rows;
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
// Memoized-wave warmup scheduling. A worker whose class another worker
// is still warming warms the next unclaimed class instead, while fewer
// than `window` classes are live. These waves have more classes than
// workers and warmups long enough that jobs wait on one another, so
// helpers do claim classes; the window-1 wave is the no-helper path.
//

namespace
{

constexpr std::size_t kSweepClasses = 5;
constexpr std::size_t kSweepLengths = 3;

/** 5 (benchmark, policy) warmup classes x 3 run lengths, each class's
 *  jobs contiguous. */
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
    for (const auto &[bench, exp] : classes) {
        for (std::uint64_t n : {2'000u, 3'000u, 4'000u}) {
            SimJob j;
            j.cfg = tinyConfig();
            j.cfg.benchmark = bench;
            j.cfg.warmupInstructions = 30'000;
            j.cfg.maxInstructions = n;
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
    ASSERT_EQ(sweepScratch().size(), kSweepClasses * kSweepLengths);

    SCOPED_TRACE("default window");
    expectMemoizedMatchesScratch(jobs, sweepScratch());
    // Window 1 admits no helper; window 2 admits one live class more
    // than the one being warmed.
    for (const char *window : {"1", "2"}) {
        SCOPED_TRACE(std::string("window ") + window);
        ScopedEnv env("STSIM_REORDER_WINDOW", window);
        expectMemoizedMatchesScratch(jobs, sweepScratch());
    }
}

TEST(MemoizedWave, RoundRobinWaveMatchesScratch)
{
    const std::vector<SimJob> contiguous = sweepJobs();
    ASSERT_EQ(sweepScratch().size(), contiguous.size());

    // A job's record does not depend on its position in the wave.
    std::vector<SimJob> jobs;
    std::vector<std::string> expected;
    for (std::size_t len = 0; len < kSweepLengths; ++len) {
        for (std::size_t c = 0; c < kSweepClasses; ++c) {
            jobs.push_back(contiguous[c * kSweepLengths + len]);
            expected.push_back(sweepScratch()[c * kSweepLengths + len]);
        }
    }
    expectMemoizedMatchesScratch(jobs, expected);
}

TEST(MemoizedWave, CancelFromFirstWriteReleasesEveryWorker)
{
    // The token fires while helpers are mid-warmup and jobs wait on
    // their classes: every worker must bail out, or this test hangs.
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
