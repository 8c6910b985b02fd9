/**
 * @file
 * Tests for the observability layer (src/obs): histogram bucket
 * boundaries and quantile estimates, multithreaded counter/gauge/
 * histogram hammering (the wait-free claim, exercised under TSan in
 * CI), snapshot round trips through the flat-record parser, trace-ring
 * overflow/drop accounting, and span-nesting round trips through the
 * emitted Chrome trace JSON.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/job_serde.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

using namespace stsim;

TEST(ObsHistogram, BucketBoundaries)
{
    // Bucket 0 holds the value 0; bucket i holds [2^(i-1), 2^i - 1].
    EXPECT_EQ(obs::Histogram::bucketFor(0), 0);
    EXPECT_EQ(obs::Histogram::bucketFor(1), 1);
    EXPECT_EQ(obs::Histogram::bucketFor(2), 2);
    EXPECT_EQ(obs::Histogram::bucketFor(3), 2);
    EXPECT_EQ(obs::Histogram::bucketFor(4), 3);
    EXPECT_EQ(obs::Histogram::bucketFor(7), 3);
    EXPECT_EQ(obs::Histogram::bucketFor(8), 4);
    EXPECT_EQ(obs::Histogram::bucketFor((1ull << 63) - 1), 63);
    EXPECT_EQ(obs::Histogram::bucketFor(1ull << 63), 64);
    EXPECT_EQ(obs::Histogram::bucketFor(~0ull), 64);

    EXPECT_EQ(obs::Histogram::bucketUpperBound(0), 0u);
    EXPECT_EQ(obs::Histogram::bucketUpperBound(1), 1u);
    EXPECT_EQ(obs::Histogram::bucketUpperBound(2), 3u);
    EXPECT_EQ(obs::Histogram::bucketUpperBound(3), 7u);
    EXPECT_EQ(obs::Histogram::bucketUpperBound(64), ~0ull);

    // Every representable value lands in a bucket whose upper bound
    // is at least the value and within 2x of it (the quantile error
    // contract).
    for (int i = 0; i < obs::Histogram::kBuckets; ++i) {
        std::uint64_t hi = obs::Histogram::bucketUpperBound(i);
        EXPECT_EQ(obs::Histogram::bucketFor(hi), i);
        if (hi > 0)
            EXPECT_EQ(obs::Histogram::bucketFor(hi / 2 + 1), i);
    }
}

TEST(ObsHistogram, QuantilesMonotoneAndWithin2x)
{
    obs::Histogram h;
    for (std::uint64_t v = 1; v <= 1000; ++v)
        h.observe(v);
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_EQ(h.sum(), 500500u);

    std::uint64_t p50 = h.quantile(0.50);
    std::uint64_t p90 = h.quantile(0.90);
    std::uint64_t p99 = h.quantile(0.99);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    // True p50 = 500, p90 = 900, p99 = 990; log buckets promise the
    // upper bound of the containing bucket, i.e. within 2x above.
    EXPECT_GE(p50, 500u);
    EXPECT_LE(p50, 1023u);
    EXPECT_GE(p90, 900u);
    EXPECT_LE(p90, 1023u);
    EXPECT_GE(p99, 990u);
    EXPECT_LE(p99, 1023u);
}

TEST(ObsHistogram, QuantileEdgeCases)
{
    obs::Histogram empty;
    EXPECT_EQ(empty.quantile(0.99), 0u);

    obs::Histogram one;
    one.observe(42);
    EXPECT_EQ(one.quantile(0.0), 63u);  // upper bound of bucket 6
    EXPECT_EQ(one.quantile(0.5), 63u);
    EXPECT_EQ(one.quantile(1.0), 63u);

    obs::Histogram zeros;
    zeros.observe(0);
    zeros.observe(0);
    EXPECT_EQ(zeros.quantile(0.99), 0u);
}

TEST(ObsHistogram, SparseRoundTrip)
{
    obs::Histogram h;
    h.observe(0);
    h.observe(5);
    h.observe(5);
    h.observe(1'000'000);
    std::string s = obs::Histogram::sparseString(h.bucketCounts());
    std::array<std::uint64_t, obs::Histogram::kBuckets> back{};
    ASSERT_TRUE(obs::Histogram::parseSparse(s, back));
    EXPECT_EQ(back, h.bucketCounts());
    EXPECT_EQ(obs::Histogram::quantileFromCounts(back, 0.5),
              h.quantile(0.5));

    std::array<std::uint64_t, obs::Histogram::kBuckets> junk{};
    EXPECT_FALSE(obs::Histogram::parseSparse("3:", junk));
    EXPECT_FALSE(obs::Histogram::parseSparse("notanum", junk));
    EXPECT_FALSE(obs::Histogram::parseSparse("99:1", junk));

    // Empty string = all-zero buckets (a histogram nobody observed).
    std::array<std::uint64_t, obs::Histogram::kBuckets> zero{};
    ASSERT_TRUE(obs::Histogram::parseSparse("", zero));
    for (std::uint64_t c : zero)
        EXPECT_EQ(c, 0u);
}

TEST(ObsMetrics, MultithreadedHammer)
{
    // Distinct names per test: the registry is process-wide.
    obs::Counter &c =
        obs::Registry::instance().counter("test.hammer_counter");
    obs::Gauge &g = obs::Registry::instance().gauge("test.hammer_gauge");
    obs::Histogram &h =
        obs::Registry::instance().histogram("test.hammer_hist");

    constexpr int kThreads = 8;
    constexpr std::uint64_t kPerThread = 20'000;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&, t] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                c.inc();
                g.add(1);
                g.sub(1);
                h.observe(i % 1024);
                // Concurrent readers must be race-free too (TSan).
                if (i % 4096 == 0) {
                    (void)h.quantile(0.9);
                    (void)obs::Registry::instance().snapshotJson();
                }
            }
            (void)t;
        });
    }
    for (std::thread &th : ts)
        th.join();

    EXPECT_EQ(c.value(), kThreads * kPerThread);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(h.count(), kThreads * kPerThread);
}

TEST(ObsMetrics, SnapshotParsesAsFlatRecord)
{
    obs::Registry &reg = obs::Registry::instance();
    reg.counter("test.snap_counter").inc(7);
    reg.gauge("test.snap_gauge").set(-3);
    obs::Histogram &h = reg.histogram("test.snap_hist");
    h.observe(10);
    h.observe(100);

    std::string snap = reg.snapshotJson();
    std::vector<serde::FlatField> fields;
    ASSERT_TRUE(serde::parseFlat(snap, fields)) << snap;

    std::uint64_t c = 0;
    ASSERT_TRUE(serde::flatGet(fields, "c.test.snap_counter", c));
    EXPECT_EQ(c, 7u);

    // Gauges are signed, so they travel as quoted strings (the flat
    // record's integer path is unsigned-only).
    std::string g;
    ASSERT_TRUE(serde::flatGet(fields, "g.test.snap_gauge", g));
    EXPECT_EQ(g, "-3");

    std::uint64_t hc = 0;
    ASSERT_TRUE(serde::flatGet(fields, "h.test.snap_hist.count", hc));
    EXPECT_EQ(hc, 2u);
    std::string hb;
    ASSERT_TRUE(serde::flatGet(fields, "h.test.snap_hist.buckets", hb));
    std::array<std::uint64_t, obs::Histogram::kBuckets> counts{};
    ASSERT_TRUE(obs::Histogram::parseSparse(hb, counts));
    EXPECT_EQ(counts, h.bucketCounts());

    // The text dump mentions every registered instrument.
    std::string dump = reg.textDump();
    EXPECT_NE(dump.find("test.snap_counter"), std::string::npos);
    EXPECT_NE(dump.find("test.snap_gauge"), std::string::npos);
    EXPECT_NE(dump.find("test.snap_hist"), std::string::npos);
}

TEST(ObsTrace, DisabledPathRecordsNothing)
{
    ASSERT_EQ(obs::TraceSink::current(), nullptr);
    {
        TRACE_SPAN("not.recorded");
    }
    // Install a sink afterwards: the earlier span must not appear.
    obs::TraceSink sink;
    obs::TraceSink::install(&sink);
    obs::TraceSink::install(nullptr);
    EXPECT_EQ(sink.recorded(), 0u);
}

TEST(ObsTrace, SpanNestingRoundTrip)
{
    obs::TraceSink sink;
    obs::TraceSink::install(&sink);
    {
        TRACE_SPAN("outer");
        {
            TRACE_SPAN("inner");
        }
    }
    obs::TraceSink::install(nullptr);
    ASSERT_EQ(sink.recorded(), 2u);
    EXPECT_EQ(sink.dropped(), 0u);

    std::string json = sink.flushJson();
    // Destructor order records inner before outer.
    std::size_t innerAt = json.find("\"name\":\"inner\"");
    std::size_t outerAt = json.find("\"name\":\"outer\"");
    ASSERT_NE(innerAt, std::string::npos) << json;
    ASSERT_NE(outerAt, std::string::npos) << json;
    EXPECT_LT(innerAt, outerAt);

    // The Chrome trace_event keys Perfetto needs, on every event.
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\":"), std::string::npos);
    EXPECT_NE(json.find("\"dur\":"), std::string::npos);
    EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
    EXPECT_NE(json.find("\"tid\":"), std::string::npos);
    EXPECT_NE(json.find("\"otherData\":{\"dropped\":0}"),
              std::string::npos);
}

TEST(ObsTrace, RingOverflowDropsAndCounts)
{
    obs::TraceSink sink(4);
    obs::TraceSink::install(&sink);
    for (int i = 0; i < 10; ++i)
        sink.record("evt", static_cast<std::uint64_t>(i), 1);
    obs::TraceSink::install(nullptr);
    EXPECT_EQ(sink.recorded(), 4u);
    EXPECT_EQ(sink.dropped(), 6u);
    std::string json = sink.flushJson();
    EXPECT_NE(json.find("\"otherData\":{\"dropped\":6}"),
              std::string::npos);
}

TEST(ObsTrace, PerThreadRingsGetDistinctTids)
{
    obs::TraceSink sink;
    obs::TraceSink::install(&sink);
    constexpr int kThreads = 4;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
        ts.emplace_back([&] {
            for (int i = 0; i < 100; ++i) {
                TRACE_SPAN("thread.work");
            }
        });
    }
    for (std::thread &th : ts)
        th.join();
    obs::TraceSink::install(nullptr);
    EXPECT_EQ(sink.recorded(), kThreads * 100u);
    EXPECT_EQ(sink.dropped(), 0u);

    // Each thread's events carry its own small tid.
    std::string json = sink.flushJson();
    int distinct = 0;
    for (int tid = 1; tid <= kThreads; ++tid) {
        if (json.find("\"tid\":" + std::to_string(tid)) !=
            std::string::npos)
            ++distinct;
    }
    EXPECT_EQ(distinct, kThreads);
}

TEST(ObsTrace, NewSinkDoesNotInheritStaleRings)
{
    // A thread's cached ring belongs to one sink generation: after
    // that sink is gone, records against a fresh sink must land in a
    // fresh ring, not the dead sink's memory.
    {
        obs::TraceSink first;
        obs::TraceSink::install(&first);
        {
            TRACE_SPAN("first.sink");
        }
        obs::TraceSink::install(nullptr);
        EXPECT_EQ(first.recorded(), 1u);
    }
    obs::TraceSink second;
    obs::TraceSink::install(&second);
    {
        TRACE_SPAN("second.sink");
    }
    obs::TraceSink::install(nullptr);
    EXPECT_EQ(second.recorded(), 1u);
    EXPECT_NE(second.flushJson().find("second.sink"),
              std::string::npos);
}
