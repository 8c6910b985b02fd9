/**
 * @file
 * Streaming-sink and shard-merge tests for the out-of-process
 * experiment engine: in-order JSONL/CSV commits, a flush after every
 * commit that wrote records, a failed flush stopping the wave, the
 * bounded reorder window (peak held results independent of matrix
 * size), and modulo-shard execution merged back bit-for-bit against
 * the in-process path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/job_serde.hh"
#include "core/parallel_harness.hh"
#include "core/results_sink.hh"
#include "core/suites.hh"
#include "obs/metrics.hh"

using namespace stsim;

namespace
{

std::vector<SimJob>
tinyJobs(std::size_t n)
{
    const char *benches[] = {"go", "twolf", "crafty", "parser"};
    const char *exps[] = {"baseline", "C2", "A3", "PG"};
    std::vector<SimJob> jobs;
    for (std::size_t i = 0; i < n; ++i) {
        SimJob j;
        j.cfg.benchmark = benches[i % 4];
        j.cfg.maxInstructions = 4'000;
        j.cfg.warmupInstructions = 1'000;
        Experiment::byName(exps[(i / 4) % 4]).applyTo(j.cfg);
        j.experiment = exps[(i / 4) % 4];
        jobs.push_back(std::move(j));
    }
    return jobs;
}

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        out.push_back(line);
    return out;
}

} // namespace

TEST(JsonlSink, StreamsRecordsInSubmissionOrder)
{
    std::vector<SimJob> jobs = tinyJobs(6);
    std::ostringstream out;
    JsonlResultsSink sink(out);
    runJobs(jobs, sink, 3);

    std::vector<std::string> recs = lines(out.str());
    ASSERT_EQ(recs.size(), jobs.size());
    std::vector<SimResults> direct = runJobs(jobs, 1);
    for (std::size_t i = 0; i < recs.size(); ++i) {
        auto [idx, r] = serde::resultRecordFromJson(recs[i]);
        EXPECT_EQ(idx, i); // in submission order, indices contiguous
        EXPECT_EQ(r.benchmark, jobs[i].cfg.benchmark);
        EXPECT_EQ(r.experiment, jobs[i].experiment);
        // The streamed record is the vector-path result, bit for bit.
        EXPECT_EQ(serde::toJson(r), serde::toJson(direct[i]));
    }
}

TEST(CsvSink, HeaderOnceThenOneRowPerJob)
{
    std::vector<SimJob> jobs = tinyJobs(3);
    std::ostringstream out;
    CsvResultsSink sink(out);
    runJobs(jobs, sink, 2);

    std::vector<std::string> rows = lines(out.str());
    ASSERT_EQ(rows.size(), jobs.size() + 1);
    EXPECT_EQ(rows[0], CsvResultsSink::header());
    std::size_t cols = 1 + std::count(rows[0].begin(), rows[0].end(),
                                      ',');
    for (std::size_t i = 1; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].find("0x"), std::string::npos)
            << "CSV doubles are decimal";
        EXPECT_EQ(1 + std::count(rows[i].begin(), rows[i].end(), ','),
                  static_cast<std::ptrdiff_t>(cols));
        EXPECT_EQ(rows[i].substr(0, 2), std::to_string(i - 1) + ",");
    }
}

TEST(StreamingEngine, ReorderBufferDoesNotGrowWithMatrixSize)
{
    // The acceptance property behind "streaming, not accumulating":
    // the engine may hold at most a small worker-derived window of
    // results for in-order commit, however long the wave is.
    class NullSink : public ResultsSink
    {
      public:
        void write(std::uint64_t, const SimResults &) override {}
    };
    NullSink sink;
    StreamStats small = runJobs(tinyJobs(8), sink, 4);
    StreamStats large = runJobs(tinyJobs(32), sink, 4);
    const std::size_t window = 2 * 4;
    EXPECT_LE(small.maxPending, window);
    EXPECT_LE(large.maxPending, window);
}

TEST(StreamingEngine, ThrowingJobAbortsTheWaveInsteadOfDeadlocking)
{
    // A throw on the commit path (here: from the sink, the same spot a
    // failed Simulator lands in) means the frontier can never advance.
    // Gate-blocked workers must be released and the exception must
    // surface through pool.wait() -- pre-abort-flag, this wave hung
    // forever once the job count exceeded the reorder window.
    class ThrowingSink : public ResultsSink
    {
      public:
        void
        write(std::uint64_t, const SimResults &) override
        {
            throw std::runtime_error("sink failed");
        }
    };
    ThrowingSink sink;
    EXPECT_THROW(runJobs(tinyJobs(12), sink, 2), std::runtime_error);
}

namespace
{

/**
 * Logs, at each flush, how many records had been written. A @p failing
 * sink's flush throws SinkWriteError, as a stream sink's does once its
 * reader has gone.
 */
class FlushLogSink : public ResultsSink
{
  public:
    explicit FlushLogSink(bool failing = false) : failing_(failing) {}

    void write(std::uint64_t, const SimResults &) override { ++writes; }

    void
    flush() override
    {
        log.push_back(writes);
        if (failing_)
            throw SinkWriteError("flush failed");
    }

    std::size_t writes = 0;
    std::vector<std::size_t> log;

  private:
    bool failing_;
};

std::uint64_t
jobsCompleted()
{
    return obs::Registry::instance()
        .counter("runjobs.jobs_completed")
        .value();
}

} // namespace

TEST(StreamingEngine, FlushesAfterEveryCommit)
{
    // One worker commits each job on its own, so the consumer is
    // handed every record as it commits, then once more at the end.
    const std::size_t n = 6;
    FlushLogSink sink;
    runJobs(tinyJobs(n), sink, 1);
    std::vector<std::size_t> want;
    for (std::size_t i = 1; i <= n; ++i)
        want.push_back(i);
    want.push_back(n);
    EXPECT_EQ(sink.log, want);
}

TEST(StreamingEngine, MemoizedWaveFlushesOncePerClass)
{
    // Three warmup classes of four run lengths each: a class commits
    // its records in one go, so a flush never splits a class.
    std::vector<SimJob> jobs;
    for (const char *bench : {"go", "twolf", "crafty"}) {
        for (std::uint64_t insts : {1'000, 2'000, 3'000, 4'000}) {
            SimJob j;
            j.cfg.benchmark = bench;
            j.cfg.maxInstructions = insts;
            j.cfg.warmupInstructions = 1'000;
            Experiment::byName("C2").applyTo(j.cfg);
            j.experiment = "C2";
            jobs.push_back(std::move(j));
        }
    }
    RunOptions opts;
    opts.workers = 2;
    opts.memoizeWarmup = true;
    FlushLogSink sink;
    runJobs(jobs, sink, opts);
    // At least one commit's flush, then the final one.
    EXPECT_GE(sink.log.size(), 2u);
    EXPECT_LE(sink.log.size(), 3u + 1u);
    for (std::size_t written : sink.log)
        EXPECT_EQ(written % 4, 0u) << "a flush split a class";
    EXPECT_EQ(sink.log.back(), jobs.size());
}

TEST(StreamingEngine, FailedFlushStopsTheWave)
{
    // The flush after the first commit fails: no later task starts,
    // and the failure leaves runJobs instead of running the rest of
    // the wave into a dead stream.
    FlushLogSink sink(/*failing=*/true);
    const std::uint64_t before = jobsCompleted();
    EXPECT_THROW(runJobs(tinyJobs(16), sink, 1), SinkWriteError);
    EXPECT_EQ(jobsCompleted() - before, 1u);
    EXPECT_EQ(sink.writes, 1u);
}

TEST(StreamingEngine, FailedFlushWithMoreTasksThanTheWindowDoesNotHang)
{
    // 24 tasks behind a window of 4: workers blocked at the gate must
    // be released when the flush fails, or pool.wait() never returns.
    // Tasks past the window never start, so at most the window's
    // worth of jobs completes.
    FlushLogSink sink(/*failing=*/true);
    const std::uint64_t before = jobsCompleted();
    EXPECT_THROW(runJobs(tinyJobs(24), sink, 2), SinkWriteError);
    EXPECT_LE(jobsCompleted() - before, 4u);
}

TEST(ShardMerge, FourShardsMergeBitForBitAgainstInProcess)
{
    // The CI gate's logic, in-process: golden-suite jobs (shrunk for
    // test runtime) split i%4, each shard run as its own wave through
    // an IndexRemapSink, lines merged by index, compared byte-for-byte
    // against the one-process dump of the same jobs.
    std::vector<SimJob> jobs = suiteJobs("golden");
    for (SimJob &j : jobs) {
        j.cfg.maxInstructions = 3'000;
        j.cfg.warmupInstructions = 500;
    }

    const unsigned kShards = 4;
    std::map<std::uint64_t, std::string> merged_by_index;
    for (unsigned s = 0; s < kShards; ++s) {
        std::vector<SimJob> mine;
        std::vector<std::uint64_t> global;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            if (i % kShards == s) {
                mine.push_back(jobs[i]);
                global.push_back(i);
            }
        }
        std::ostringstream out;
        JsonlResultsSink jsonl(out);
        IndexRemapSink remap(jsonl, global);
        runJobs(mine, remap, 2);
        for (const std::string &line : lines(out.str())) {
            std::uint64_t idx = serde::resultRecordIndex(line);
            EXPECT_TRUE(merged_by_index.emplace(idx, line).second)
                << "duplicate index " << idx;
        }
    }
    ASSERT_EQ(merged_by_index.size(), jobs.size());

    std::vector<SimResults> direct = runJobs(jobs, 4);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(merged_by_index.at(i),
                  serde::resultRecordToJson(i, direct[i]))
            << "index " << i;
    }
}
