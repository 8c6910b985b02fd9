/**
 * @file
 * Tests for the uniform checkpoint API (core/state_serde.hh) and the
 * Simulator snapshot/fork workflow: writer/reader round trips, strict
 * rejection of malformed snapshots, and the headline property -- a
 * simulator forked from a snapshot finishes bitwise identical to one
 * that never stopped.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "common/logging.hh"
#include "core/job_serde.hh"
#include "core/parallel_harness.hh"
#include "core/results_sink.hh"
#include "core/simulator.hh"
#include "core/state_serde.hh"
#include "throttle/policy.hh"

using namespace stsim;

namespace
{

/** Small-but-real config: every subsystem exercised, fast to run. */
SimConfig
smallConfig(const char *experiment)
{
    SimConfig cfg;
    cfg.benchmark = "go";
    cfg.warmupInstructions = 5'000;
    cfg.maxInstructions = 20'000;
    if (std::string(experiment) == "C2") {
        cfg.confKind = ConfKind::Bpru;
        cfg.specControl.mode = SpecControlMode::Selective;
        cfg.specControl.policy = ThrottlePolicy::byName("C2");
    } else if (std::string(experiment) == "PG") {
        cfg.confKind = ConfKind::Jrs;
        cfg.specControl.mode = SpecControlMode::PipelineGating;
        cfg.specControl.gatingThreshold = 2;
    }
    return cfg;
}

/** Bit-exact result identity via the hex-float JSON encoding. */
std::string
fingerprint(const SimResults &r)
{
    return serde::toJson(r);
}

} // namespace

//
// StateWriter / StateReader primitives
//

TEST(StateSerde, ScalarRoundTrip)
{
    serde::StateWriter w;
    w.begin("s");
    w.u64("a", ~0ull);
    w.i64("b", -42);
    w.boolean("c", true);
    w.dbl("d", 0.1);
    w.str("e", "hello world");
    w.end("s");
    std::string img = w.take();

    serde::StateReader r(img);
    r.begin("s");
    EXPECT_EQ(r.u64("a"), ~0ull);
    EXPECT_EQ(r.i64("b"), -42);
    EXPECT_TRUE(r.boolean("c"));
    EXPECT_EQ(r.dbl("d"), 0.1);
    EXPECT_EQ(r.str("e"), "hello world");
    r.end("s");
    r.finish();
}

TEST(StateSerde, ArrayRoundTrip)
{
    const std::uint64_t u[3] = {1, 0, ~0ull};
    const double d[2] = {1.5, -0.0};
    std::vector<std::uint16_t> v{7, 9};

    serde::StateWriter w;
    w.begin("s");
    w.u64Array("u", u, 3);
    w.dblArray("d", d, 2);
    w.u64Vec("v", v);
    w.end("s");
    std::string img = w.take();

    serde::StateReader r(img);
    r.begin("s");
    std::vector<std::uint64_t> ru = r.u64Vec("u");
    ASSERT_EQ(ru.size(), 3u);
    EXPECT_EQ(ru[2], ~0ull);
    std::vector<double> rd = r.dblVec("d");
    ASSERT_EQ(rd.size(), 2u);
    EXPECT_EQ(rd[0], 1.5);
    EXPECT_TRUE(std::signbit(rd[1]));
    std::vector<std::uint64_t> rv = r.u64Vec("v");
    ASSERT_EQ(rv.size(), 2u);
    EXPECT_EQ(rv[1], 9u);
    r.end("s");
    r.finish();
}

TEST(StateSerde, DoubleIsBitExact)
{
    // Values decimal printing would mangle must survive exactly.
    const double vals[] = {0.1, 1.0 / 3.0, 6.02214076e23, 5e-324};
    serde::StateWriter w;
    w.begin("s");
    w.dblArray("v", vals, 4);
    w.end("s");
    std::string img = w.take();
    serde::StateReader r(img);
    r.begin("s");
    std::vector<double> back = r.dblVec("v");
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(back[i], vals[i]) << "index " << i;
    r.end("s");
    r.finish();
}

TEST(StateSerde, WrongKeyIsFatal)
{
    serde::StateWriter w;
    w.begin("s");
    w.u64("a", 1);
    w.end("s");
    std::string img = w.take();

    FatalCaptureScope capture;
    serde::StateReader r(img);
    r.begin("s");
    EXPECT_THROW(r.u64("b"), FatalError);
}

TEST(StateSerde, WrongSectionIsFatal)
{
    serde::StateWriter w;
    w.begin("s");
    w.end("s");
    std::string img = w.take();

    FatalCaptureScope capture;
    serde::StateReader r(img);
    EXPECT_THROW(r.begin("t"), FatalError);
}

TEST(StateSerde, TruncationIsFatal)
{
    serde::StateWriter w;
    w.begin("s");
    w.u64("a", 1);
    w.end("s");
    std::string img = w.take();

    FatalCaptureScope capture;
    // Without the end marker the reader must refuse to finish.
    ASSERT_TRUE(img.size() > 4 &&
                img.compare(img.size() - 4, 4, "end\n") == 0);
    std::string cut = img.substr(0, img.size() - 4);
    serde::StateReader r(cut);
    r.begin("s");
    EXPECT_EQ(r.u64("a"), 1u);
    r.end("s");
    EXPECT_THROW(r.finish(), FatalError);
}

TEST(StateSerde, TrailingGarbageIsFatal)
{
    serde::StateWriter w;
    w.begin("s");
    w.end("s");
    std::string img = w.take() + "junk\n";

    FatalCaptureScope capture;
    serde::StateReader r(img);
    r.begin("s");
    r.end("s");
    EXPECT_THROW(r.finish(), FatalError);
}

TEST(StateSerde, VersionMismatchIsFatal)
{
    FatalCaptureScope capture;
    EXPECT_THROW(serde::StateReader r("stsim-state 999\nend\n"),
                 FatalError);
    EXPECT_THROW(serde::StateReader r("not a snapshot"), FatalError);
}

TEST(StateSerde, ShortArrayIsFatal)
{
    FatalCaptureScope capture;
    // A declared count far beyond the line must not be reserved up
    // front: it is an error, not an allocation failure.
    for (const char *count : {"3", "99999999999999"}) {
        SCOPED_TRACE(count);
        const std::string img = std::string("stsim-state 1\n[s]\nv ") +
                                count + " 1 2\nd " + count +
                                " 0x1p+0\n[/s]\nend\n";
        serde::StateReader r(img);
        r.begin("s");
        EXPECT_THROW(r.u64Vec("v"), FatalError);
        EXPECT_THROW(r.dblVec("d"), FatalError);
    }
}

//
// Simulator snapshot / fork
//

TEST(Snapshot, ForkFromWarmupIsBitExact)
{
    for (const char *exp : {"baseline", "C2", "PG"}) {
        SCOPED_TRACE(exp);
        SimConfig cfg = smallConfig(exp);

        SimResults straight = Simulator(cfg).run();

        Simulator warm(cfg);
        warm.runWarmup();
        std::string snap = warm.saveSnapshot();

        Simulator forked(cfg);
        forked.restoreSnapshot(snap);
        SimResults resumed = forked.run();

        EXPECT_EQ(fingerprint(straight), fingerprint(resumed));
    }
}

TEST(Snapshot, MidMeasureSnapshotIsBitExact)
{
    SimConfig cfg = smallConfig("C2");

    Simulator a(cfg);
    a.runWarmup();
    for (int i = 0; i < 1'000; ++i)
        a.core().tick();
    std::string snap = a.saveSnapshot();
    SimResults ra = a.run();

    Simulator b(cfg);
    b.restoreSnapshot(snap);
    SimResults rb = b.run();

    EXPECT_EQ(fingerprint(ra), fingerprint(rb));
}

TEST(Snapshot, MidWarmupSnapshotIsBitExact)
{
    SimConfig cfg = smallConfig("PG");

    Simulator a(cfg);
    for (int i = 0; i < 500; ++i)
        a.core().tick();
    std::string snap = a.saveSnapshot();
    SimResults ra = a.run();

    Simulator b(cfg);
    b.restoreSnapshot(snap);
    SimResults rb = b.run();

    EXPECT_EQ(fingerprint(ra), fingerprint(rb));
}

TEST(Snapshot, SaveLoadSaveIsIdentity)
{
    SimConfig cfg = smallConfig("C2");
    Simulator a(cfg);
    a.runWarmup();
    std::string snap = a.saveSnapshot();

    Simulator b(cfg);
    b.restoreSnapshot(snap);
    EXPECT_EQ(snap, b.saveSnapshot());
}

TEST(Snapshot, ForkMayChangeRunLengthAndPower)
{
    // The class key masks maxInstructions and power, so one warmup
    // serves a sweep over them; the forked short run must equal a
    // straight short run.
    SimConfig warm_cfg = smallConfig("baseline");
    warm_cfg.maxInstructions = 50'000;
    Simulator warm(warm_cfg);
    warm.runWarmup();
    std::string snap = warm.saveSnapshot();

    SimConfig short_cfg = smallConfig("baseline");
    short_cfg.maxInstructions = 10'000;
    short_cfg.power.idleFactor *= 0.5;

    SimResults straight = Simulator(short_cfg).run();
    Simulator forked(short_cfg);
    forked.restoreSnapshot(snap);
    SimResults resumed = forked.run();

    EXPECT_EQ(fingerprint(straight), fingerprint(resumed));
}

TEST(Snapshot, WrongClassIsFatal)
{
    Simulator a(smallConfig("baseline"));
    a.runWarmup();
    std::string snap = a.saveSnapshot();

    SimConfig other = smallConfig("baseline");
    other.runSeed = 1234; // different run: different warmup class
    Simulator b(other);

    FatalCaptureScope capture;
    EXPECT_THROW(b.restoreSnapshot(snap), FatalError);
}

TEST(Snapshot, TruncatedSimulatorSnapshotIsFatal)
{
    SimConfig cfg = smallConfig("baseline");
    Simulator a(cfg);
    a.runWarmup();
    std::string snap = a.saveSnapshot();

    Simulator b(cfg);
    FatalCaptureScope capture;
    EXPECT_THROW(
        b.restoreSnapshot(snap.substr(0, snap.size() / 2)),
        FatalError);
}

namespace
{

/** Collects a wave into a vector (test-local sink). */
class CollectSink : public ResultsSink
{
  public:
    explicit CollectSink(std::vector<SimResults> &out) : out_(out) {}

    void
    write(std::uint64_t index, const SimResults &r) override
    {
        out_[index] = r;
    }

  private:
    std::vector<SimResults> &out_;
};

} // namespace

TEST(Snapshot, MemoizedWaveIsBitwiseIdenticalToScratch)
{
    // A run-length sweep: per (benchmark, experiment) all three run
    // lengths share one warmup class, so the memoized wave must run
    // exactly 4 warmups for 12 jobs -- and still commit byte-identical
    // results.
    std::vector<SimJob> jobs;
    for (const char *b : {"go", "crafty"}) {
        for (const char *exp : {"baseline", "C2"}) {
            for (std::uint64_t n : {8'000u, 12'000u, 16'000u}) {
                SimJob j;
                j.cfg = smallConfig(exp);
                j.cfg.benchmark = b;
                j.cfg.maxInstructions = n;
                j.experiment = exp;
                jobs.push_back(std::move(j));
            }
        }
    }

    std::vector<SimResults> scratch = runJobs(jobs, 3);

    std::vector<SimResults> memo(jobs.size());
    CollectSink sink(memo);
    RunOptions opts;
    opts.workers = 3;
    opts.memoizeWarmup = true;
    StreamStats stats = runJobs(jobs, sink, opts);

    EXPECT_EQ(stats.warmupsRun, 4u);
    ASSERT_EQ(scratch.size(), memo.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(fingerprint(scratch[i]), fingerprint(memo[i]))
            << "job " << i;
}

TEST(Snapshot, CorruptedFieldIsFatal)
{
    SimConfig cfg = smallConfig("baseline");
    Simulator a(cfg);
    a.runWarmup();
    std::string snap = a.saveSnapshot();

    // Damage a key name somewhere past the header; the strict reader
    // must name the mismatch instead of restoring garbage.
    std::size_t pos = snap.find("\nnext_seq ");
    ASSERT_NE(pos, std::string::npos);
    snap[pos + 1] = 'x';

    Simulator b(cfg);
    FatalCaptureScope capture;
    EXPECT_THROW(b.restoreSnapshot(snap), FatalError);
}

namespace
{

/**
 * A C2 image taken mid-measurement while fetch runs down a wrong
 * path: instructions in flight, a live wrong-path cursor and tracked
 * branches in the controller.
 */
std::string
wrongPathImage()
{
    Simulator a(smallConfig("C2"));
    a.runWarmup();
    for (int i = 0; i < 300; ++i)
        a.core().tick();
    std::string snap = a.saveSnapshot();
    for (int i = 0; i < 10'000; ++i) {
        if (snap.find("\nhas_wrong_cursor 1\n") != std::string::npos)
            break;
        a.core().tick();
        snap = a.saveSnapshot();
    }
    return snap;
}

/** Overwrite the value of the first `key value` line at or after
 *  @p from. */
void
setValue(std::string &img, const std::string &key,
         const std::string &value, std::size_t from = 0)
{
    const std::string needle = "\n" + key + " ";
    std::size_t pos = img.find(needle, from);
    ASSERT_NE(pos, std::string::npos) << key;
    pos += needle.size();
    img.replace(pos, img.find('\n', pos) - pos, value);
}

/** Restoring @p img into a simulator of @p cfg must fail with a
 *  structured error containing @p what. */
void
expectRejected(const std::string &img, const std::string &what,
               const SimConfig &cfg = smallConfig("C2"))
{
    Simulator b(cfg);
    FatalCaptureScope capture;
    try {
        b.restoreSnapshot(img);
        ADD_FAILURE() << "image accepted; expected an error with '"
                      << what << "'";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
    } catch (const std::exception &e) {
        ADD_FAILURE() << "unstructured error: " << e.what();
    }
}

} // namespace

/// Pins one snapshot image byte for byte (FNV-1a 64 over the text):
/// any change to what a snapshot holds, or to the simulation that
/// reached it, changes the digest.
TEST(Snapshot, WrongPathImageIsPinned)
{
    const std::string img = wrongPathImage();
    ASSERT_NE(img.find("\nhas_wrong_cursor 1\n"), std::string::npos);
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : img) {
        h ^= c;
        h *= 1099511628211ull;
    }
    EXPECT_EQ(h, 0xb0fbe52e4f57e948ull) << img.size() << " bytes";
}

TEST(Snapshot, OutOfRangeConfIsFatal)
{
    std::string img = wrongPathImage();
    setValue(img, "conf", "4");
    expectRejected(img, "conf");
}

TEST(Snapshot, OutOfRangeInstRasTopIsFatal)
{
    std::string img = wrongPathImage();
    setValue(img, "ras_top",
             std::to_string(smallConfig("C2").bpred.rasEntries));
    expectRejected(img, "ras_top");
}

TEST(Snapshot, OutOfRangeCallStackIsFatal)
{
    for (const char *section : {"\n[workload]\n", "\n[wrong_cursor]\n"}) {
        SCOPED_TRACE(section);
        std::string img = wrongPathImage();
        const std::size_t at = img.find(section);
        ASSERT_NE(at, std::string::npos);
        setValue(img, "call_stack", "1 4000000000", at);
        expectRejected(img, "call_stack");
    }
}

TEST(Snapshot, OutOfRangeRasTopIsFatal)
{
    std::string img = wrongPathImage();
    const std::size_t ras = img.find("\n[ras]\n");
    ASSERT_NE(ras, std::string::npos);
    setValue(img, "top",
             std::to_string(smallConfig("C2").bpred.rasEntries), ras);
    expectRejected(img, "RAS top");
}

namespace
{

/** A snapshot taken at the end of @p cfg's warmup. */
std::string
warmImage(const SimConfig &cfg)
{
    Simulator a(cfg);
    a.runWarmup();
    return a.saveSnapshot();
}

} // namespace

TEST(Snapshot, OutOfRangeMruWayIsFatal)
{
    // access() and probe() read the set's ways at mru_way first.
    const CacheConfig dl1 = smallConfig("C2").memory.dl1;
    const std::size_t sets = dl1.sizeBytes / dl1.lineBytes / dl1.ways;
    const std::string warm = warmImage(smallConfig("C2"));
    for (std::size_t bad : {dl1.ways, std::size_t{200}}) {
        SCOPED_TRACE(bad);
        std::string img = warm;
        const std::size_t at = img.find("\n[cache]\nname dl1\n");
        ASSERT_NE(at, std::string::npos);
        std::string mru = std::to_string(sets);
        for (std::size_t i = 0; i < sets; ++i)
            mru += " " + std::to_string(bad);
        setValue(img, "mru_way", mru, at);
        expectRejected(img, "mru_way");
    }
}

/// Every array whose length the configuration, or a sibling array,
/// fixes must have that length: the loaders index their tables and the
/// sibling arrays with it. A short array is a structured error naming
/// the key and both counts, never a heap overflow or an uncaught
/// std::out_of_range.
TEST(Snapshot, WrongLengthArrayIsFatal)
{
    const SimConfig c2 = smallConfig("C2");
    const SimConfig pg = smallConfig("PG"); // JRS confidence
    SimConfig bimodal = smallConfig("C2");
    bimodal.bpred.kind = BpredConfig::Kind::Bimodal;
    const std::string c2Img = wrongPathImage();
    const std::string pgImg = warmImage(pg);
    const std::string bimodalImg = warmImage(bimodal);

    struct Case
    {
        const SimConfig &cfg;
        const std::string &img;
        const char *section; ///< the array is the first `key` after it
        const char *key;
    };
    const Case cases[] = {
        {c2, c2Img, "[workload]", "loop_count"},
        {c2, c2Img, "[gshare]", "pht"},
        {bimodal, bimodalImg, "[bimodal]", "pht"},
        {c2, c2Img, "[btb]", "valid"},
        {c2, c2Img, "[btb]", "tag"},
        {c2, c2Img, "[btb]", "target"},
        {c2, c2Img, "[btb]", "last_use"},
        {c2, c2Img, "[ras]", "stack"},
        {c2, c2Img, "[confidence]", "valid"},
        {c2, c2Img, "[confidence]", "tag"},
        {c2, c2Img, "[confidence]", "counter"},
        {pg, pgImg, "[confidence]", "mdc"},
        {c2, c2Img, "[cache]\nname il1", "tag"},
        {c2, c2Img, "[cache]\nname dl1", "last_use"},
        {c2, c2Img, "[cache]\nname l2", "flags"},
        {c2, c2Img, "[cache]\nname dl1", "mru_way"},
        {c2, c2Img, "[tlb]", "last_use"},
        {c2, c2Img, "[power]", "unit_energy"},
        {c2, c2Img, "[power]", "unit_wasted"},
        {c2, c2Img, "[power]", "activity_sum"},
        {c2, c2Img, "[power]", "touched_cycles"},
        {c2, c2Img, "[controller]", "lvl"},
        {c2, c2Img, "[core_stats]", "counters"},
        {c2, c2Img, "[conf_metrics]", "correct_by_level"},
        {c2, c2Img, "[conf_metrics]", "miss_by_level"},
        {c2, c2Img, "[core]", "ready_words"},
    };
    for (const Case &c : cases) {
        const std::string anchor = std::string("\n") + c.section + "\n";
        SCOPED_TRACE(anchor + c.key);
        std::string img = c.img;
        const std::size_t at = img.find(anchor);
        ASSERT_NE(at, std::string::npos);

        // `key N v1 .. vN` becomes `key 1 v1`, or `key 0` when N is 1.
        const std::string needle = std::string("\n") + c.key + " ";
        const std::size_t line = img.find(needle, at);
        ASSERT_NE(line, std::string::npos);
        const std::size_t val = line + needle.size();
        const std::size_t eol = img.find('\n', val);
        std::istringstream in(img.substr(val, eol - val));
        std::string count, first;
        in >> count >> first;
        ASSERT_FALSE(first.empty());
        const std::string kept = count == "1" ? "0" : "1";
        img.replace(val, eol - val, kept == "0" ? kept : "1 " + first);

        expectRejected(img,
                       std::string("array '") + c.key + "' has " + kept +
                           " values, expected " + count,
                       c.cfg);
    }
}
