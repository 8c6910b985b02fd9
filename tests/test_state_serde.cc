/**
 * @file
 * Tests for the uniform checkpoint API (core/state_serde.hh) and the
 * Simulator snapshot/fork workflow: writer/reader round trips, strict
 * rejection of malformed snapshots, and the headline property -- a
 * simulator forked from a snapshot finishes bitwise identical to one
 * that never stopped.
 */

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/job_serde.hh"
#include "core/parallel_harness.hh"
#include "core/results_sink.hh"
#include "core/simulator.hh"
#include "core/state_serde.hh"
#include "throttle/policy.hh"

#include "run_jobs.hh"

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
    w.boolean("c", true);
    w.dbl("d", 0.1);
    w.str("e", "hello world");
    w.end("s");
    std::string img = w.take();

    serde::StateReader r(img);
    r.begin("s");
    EXPECT_EQ(r.u64("a"), ~0ull);
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

namespace
{

std::string
showValue(std::uint64_t v)
{
    return std::to_string(v);
}

std::string
showValue(double v)
{
    return serde::doubleToHex(v);
}

/**
 * Reads the image whose only array line is `v TEXT` with @p read, and
 * returns "ok" and the values, or the fatal message it raised.
 */
template <typename Read>
std::string
readArrayLine(const std::string &text, Read read)
{
    const std::string img =
        "stsim-state 1\n[s]\nv " + text + "\n[/s]\nend\n";
    FatalCaptureScope capture;
    try {
        serde::StateReader r(img);
        r.begin("s");
        std::string out = "ok";
        for (const auto &x : read(r))
            out += " " + showValue(x);
        return out;
    } catch (const FatalError &e) {
        return e.what();
    }
}

std::string
readU64Line(const std::string &text)
{
    return readArrayLine(text, [](serde::StateReader &r) {
        return r.u64Vec("v");
    });
}

std::string
readDblLine(const std::string &text)
{
    return readArrayLine(text, [](serde::StateReader &r) {
        return r.dblVec("v");
    });
}

const std::string kShortLine =
    "state: line 3: array 'v' is shorter than its declared count";

} // namespace

/// An array token is read exactly as std::from_chars (integers) or
/// strtod (doubles) reads it as a whole token, in the count and in
/// the values, and every rejection keeps its message.
TEST(StateSerde, ArrayTokensMatchFromChars)
{
    const std::string tokens[] = {
        "0",     "007", "+1", "-1", "1x", "x", std::string(19, '9'),
        "18446744073709551615", "18446744073709551616",
        std::string(25, '7'),
    };
    for (const std::string &tok : tokens) {
        SCOPED_TRACE("token '" + tok + "'");
        std::uint64_t val = 0;
        const char *last = tok.data() + tok.size();
        const auto [p, ec] = std::from_chars(tok.data(), last, val);
        const bool ok = ec == std::errc() && p == last;
        const std::string bad =
            "state: line 3: bad integer for 'v': '" + tok + "'";

        // A value: `v 3 1 TOK 2`.
        EXPECT_EQ(readU64Line("3 1 " + tok + " 2"),
                  ok ? "ok 1 " + std::to_string(val) + " 2" : bad);

        // The count, followed by min(count, 8) values.
        std::string u64s = tok, dbls = tok, u64Want = "ok",
                    dblWant = "ok";
        for (std::uint64_t i = 0; i < std::min<std::uint64_t>(val, 8);
             ++i) {
            u64s += " 5";
            dbls += " 0x1.4p+2";
            u64Want += " 5";
            dblWant += " 0x1.4p+2";
        }
        if (ok && val > 8)
            u64Want = dblWant = kShortLine;
        EXPECT_EQ(readU64Line(u64s), ok ? u64Want : bad);
        EXPECT_EQ(readDblLine(dbls), ok ? dblWant : bad);
    }

    for (const char *tok : {"0x1p+0", "-0x1.8p+1", "0x0p+0", "-0x0p+0",
                            "inf", "1.5", "0x1p", "0x1p+0x", "x"}) {
        SCOPED_TRACE(std::string("double '") + tok + "'");
        char *end = nullptr;
        const double val = std::strtod(tok, &end);
        EXPECT_EQ(readDblLine(std::string("2 ") + tok + " 0x1p+0"),
                  *end == '\0'
                      ? "ok " + showValue(val) + " 0x1p+0"
                      : std::string("serde: bad double '") + tok + "'");
    }

    // Runs of spaces separate tokens; an empty token is no token.
    EXPECT_EQ(readU64Line("  3   1  2   3  "), "ok 1 2 3");
    EXPECT_EQ(readDblLine(" 2  0x1p+0   0x1p+1 "), "ok 0x1p+0 0x1p+1");
    EXPECT_EQ(readU64Line("0 "), "ok");
    EXPECT_EQ(readU64Line("3 1  2"), kShortLine);
    EXPECT_EQ(readU64Line(""), kShortLine);
    EXPECT_EQ(readDblLine("  "), kShortLine);
    EXPECT_EQ(readU64Line("2 1 2 3"),
              "state: line 3: array 'v' has trailing tokens beyond its "
              "declared count");
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

namespace
{

/** FNV-1a 64 over a snapshot image's text. */
std::uint64_t
imageDigest(const std::string &img)
{
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : img) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** A snapshot taken at the end of @p cfg's warmup. */
std::string
warmImage(const SimConfig &cfg)
{
    Simulator a(cfg);
    a.runWarmup();
    return a.saveSnapshot();
}

} // namespace

/// Pins one snapshot image byte for byte: any change to what a
/// snapshot holds, or to the simulation that reached it, changes the
/// digest.
TEST(Snapshot, WrongPathImageIsPinned)
{
    const std::string img = wrongPathImage();
    ASSERT_NE(img.find("\nhas_wrong_cursor 1\n"), std::string::npos);
    EXPECT_EQ(imageDigest(img), 0xb0fbe52e4f57e948ull)
        << img.size() << " bytes";
}

/// Pins the image layouts the wrong-path image does not reach: JRS
/// and the gating controller, the bimodal table, the oracle's empty
/// confidence section, a machine with no estimator and no speculation
/// control, and a snapshot taken mid-warmup.
TEST(Snapshot, EveryLayoutIsPinned)
{
    SimConfig bimodal = smallConfig("C2");
    bimodal.bpred.kind = BpredConfig::Kind::Bimodal;
    SimConfig perfect = smallConfig("C2");
    perfect.confKind = ConfKind::Perfect;
    Simulator midWarmup(smallConfig("PG"));
    for (int i = 0; i < 500; ++i)
        midWarmup.core().tick();

    const struct
    {
        const char *name;
        std::string img;
        const char *holds; ///< a line this layout must have
        std::uint64_t digest;
    } cases[] = {
        {"PG", warmImage(smallConfig("PG")), "\nmdc ",
         0x9c4d31d52de0b9cfull},
        {"bimodal", warmImage(bimodal), "\n[bimodal]\n",
         0xba5092b9aa53397bull},
        {"perfect", warmImage(perfect), "\n[confidence]\n[/confidence]\n",
         0xb53d2e8798fb6975ull},
        {"baseline", warmImage(smallConfig("baseline")),
         "\n[controller]\nseq 0\n", 0x233250d431a2cbadull},
        {"mid-warmup", midWarmup.saveSnapshot(), "\nphase 0\n",
         0x752172aeb579cd10ull},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        EXPECT_NE(c.img.find(c.holds), std::string::npos);
        EXPECT_EQ(imageDigest(c.img), c.digest)
            << std::hex << "0x" << imageDigest(c.img) << std::dec << ", "
            << c.img.size() << " bytes";
    }
    // The baseline machine has no estimator at all.
    EXPECT_EQ(cases[3].img.find("\n[confidence]\n"), std::string::npos);
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
    // A frame past the last block, or more frames than a walker keeps
    // (BlockWalker::kMaxCallDepth, 64).
    auto frames = [](std::size_t n) {
        std::string v = std::to_string(n);
        for (std::size_t i = 0; i < n; ++i)
            v += " 1";
        return v;
    };
    for (const std::string section : {"workload", "wrong_cursor"}) {
        SCOPED_TRACE(section);
        const std::string img = wrongPathImage();
        const std::size_t at = img.find("\n[" + section + "]\n");
        ASSERT_NE(at, std::string::npos);

        std::string bad = img;
        setValue(bad, "call_stack", "1 4000000000", at);
        expectRejected(bad, "call_stack");

        std::string deep = img;
        setValue(deep, "call_stack", frames(64), at);
        Simulator sim(smallConfig("C2"));
        FatalCaptureScope capture;
        EXPECT_NO_THROW(sim.restoreSnapshot(deep));

        setValue(deep, "call_stack", frames(65), at);
        expectRejected(deep, "state: [" + section +
                                 "] call_stack depth 65 exceeds 64");
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

/// A value that does not fit the field it restores into is an error
/// naming the key: it used to be narrowed, wrapped or clamped into a
/// different value (or, for `cls`, kept as no instruction class), so
/// the restored machine silently differed from the image.
TEST(Snapshot, NarrowedValueIsFatal)
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
        const char *section; ///< the line is the first `key` after it
        const char *key;
        std::size_t token; ///< 1 is the value, or an array's count
        const char *value;
    };
    const Case cases[] = {
        {c2, c2Img, "[inst]", "flags", 1, "256"},
        {c2, c2Img, "[inst]", "waiting_on", 1, "300"},
        {c2, c2Img, "[inst]", "cls", 1, "200"},
        {c2, c2Img, "[inst]", "src0", 1, "300"},
        {c2, c2Img, "[inst]", "src1", 1, "256"},
        {c2, c2Img, "[inst]", "dir_counter", 1, "4294967297"},
        {c2, c2Img, "[inst]", "dir_counter_max", 1, "256"},
        {c2, c2Img, "[core]", "ready_stores", 1, "4294967297"},
        {c2, c2Img, "[workload]", "op_idx", 1, "4294967297"},
        {c2, c2Img, "[wrong_cursor]", "op_idx", 1, "4294967297"},
        {c2, c2Img, "[workload]", "loop_count", 2, "65536"},
        {c2, c2Img, "[workload]", "chaos_wild", 2, "256"},
        {c2, c2Img, "[workload]", "bias_streak", 2, "4294967297"},
        {c2, c2Img, "[workload]", "stream_pos", 2, "4294967297"},
        {c2, c2Img, "[gshare]", "pht", 2, "4"},
        {bimodal, bimodalImg, "[bimodal]", "pht", 2, "4"},
        {c2, c2Img, "[btb]", "valid", 2, "2"},
        {c2, c2Img, "[confidence]", "valid", 2, "2"},
        {c2, c2Img, "[confidence]", "tag", 2, "4294967297"},
        {c2, c2Img, "[confidence]", "counter", 2, "256"},
        {pg, pgImg, "[confidence]", "mdc", 2, "16"},
        {c2, c2Img, "[cache]\nname dl1", "flags", 2, "4"},
    };
    for (const Case &c : cases) {
        const std::string anchor = std::string("\n") + c.section + "\n";
        SCOPED_TRACE(anchor + c.key + " token " + std::to_string(c.token) +
                     " = " + c.value);
        std::string img = c.img;
        const std::size_t at = img.find(anchor);
        ASSERT_NE(at, std::string::npos);
        const std::string needle = std::string("\n") + c.key + " ";
        const std::size_t line = img.find(needle, at);
        ASSERT_NE(line, std::string::npos);
        const std::size_t eol = img.find('\n', line + 1);
        std::istringstream in(img.substr(line + 1, eol - line - 1));
        std::vector<std::string> toks;
        for (std::string t; in >> t;)
            toks.push_back(t);
        ASSERT_LT(c.token, toks.size());
        toks[c.token] = c.value;
        std::string edited = toks[0];
        for (std::size_t i = 1; i < toks.size(); ++i)
            edited += " " + toks[i];
        img.replace(line + 1, eol - line - 1, edited);

        expectRejected(img,
                       std::string("'") + c.key + "' value " + c.value +
                           " is out of range",
                       c.cfg);
    }
}

/// A consumer is kept as its distance past the producer's seq, which
/// must be positive and fit 32 bits.
TEST(Snapshot, OutOfRangeConsumerIsFatal)
{
    const std::string warm = wrongPathImage();
    const std::size_t at = warm.find("\n[inst]\nseq ");
    ASSERT_NE(at, std::string::npos);
    const std::uint64_t seq =
        std::stoull(warm.substr(at + std::strlen("\n[inst]\nseq ")));
    for (std::uint64_t consumer : {std::uint64_t{0}, seq,
                                   seq + std::uint64_t{UINT32_MAX}}) {
        SCOPED_TRACE(consumer);
        std::string img = warm;
        setValue(img, "consumers", "1 " + std::to_string(consumer), at);
        expectRejected(img, "consumer " + std::to_string(consumer));
    }
}

/// Two live instructions with one seq would make the seq -> slot ring
/// grow forever on the next collision.
TEST(Snapshot, DuplicateLiveSeqIsFatal)
{
    std::string img = wrongPathImage();
    const std::string first = "\n[inst]\nseq ";
    const std::size_t a = img.find(first);
    ASSERT_NE(a, std::string::npos);
    const std::size_t b = img.find(first, a + 1);
    ASSERT_NE(b, std::string::npos);
    const std::size_t vb = b + first.size();
    const std::string seq =
        img.substr(a + first.size(), img.find('\n', a + 1 + first.size()) -
                                         a - first.size());
    img.replace(vb, img.find('\n', vb) - vb, seq);
    expectRejected(img, "two live insts have seq " + seq);
}

namespace
{

/** The values of the first `key count v...` array line at or after
 *  @p from, without the count. */
std::vector<std::string>
arrayValues(const std::string &img, const std::string &key,
            std::size_t from = 0)
{
    const std::string needle = "\n" + key + " ";
    std::size_t pos = img.find(needle, from);
    if (pos == std::string::npos) {
        ADD_FAILURE() << key;
        return {};
    }
    pos += needle.size();
    std::istringstream in(img.substr(pos, img.find('\n', pos) - pos));
    std::vector<std::string> out;
    std::string tok;
    in >> tok; // the count
    while (in >> tok)
        out.push_back(tok);
    return out;
}

/** Overwrite that array line with @p values. */
void
setArray(std::string &img, const std::string &key,
         const std::vector<std::string> &values, std::size_t from = 0)
{
    std::string line = std::to_string(values.size());
    for (const std::string &v : values)
        line += " " + v;
    setValue(img, key, line, from);
}

/** Offset of the `[section]` header of a core queue in @p img. */
std::size_t
ring(const std::string &img, const std::string &section)
{
    const std::size_t at = img.find("\n[" + section + "]\n");
    EXPECT_NE(at, std::string::npos) << section;
    return at;
}

} // namespace

/// The slot lists and the queues must agree: free_slots and live_slots
/// partition the pool, every live slot sits in exactly one of fetch_q,
/// dispatch_q and rob, and the LSQ holds only ROB slots. Each case
/// rewrites one array line; the wrong-path image's instructions are
/// all in fetch_q, so most cases add a slot to an empty queue.
TEST(Snapshot, SlotPoolMustBePartitioned)
{
    const std::string warm = wrongPathImage();
    std::vector<std::string> free = arrayValues(warm, "free_slots");
    std::vector<std::string> fetch =
        arrayValues(warm, "items", ring(warm, "fetch_q"));
    ASSERT_GE(free.size(), 2u);
    ASSERT_FALSE(fetch.empty());
    const std::string freeSlot = free.front();
    const std::string liveSlot = fetch.front();
    free.back() = freeSlot;
    fetch.erase(fetch.begin());

    struct Case
    {
        const char *section; // nullptr: the core's own lines
        const char *key;
        std::vector<std::string> values;
        std::string diag;
    };
    for (const Case &c : {
             Case{nullptr, "free_slots", free,
                  "free_slots holds slot " + freeSlot +
                      ", which is already free"},
             Case{"rob", "items", {freeSlot},
                  "rob holds slot " + freeSlot +
                      ", which is free, not live"},
             Case{"rob", "items", {liveSlot},
                  "rob holds slot " + liveSlot +
                      ", which is in fetch_q, not live"},
             Case{"fetch_q", "items", fetch,
                  "live slot " + liveSlot +
                      " is in none of fetch_q, dispatch_q and rob"},
             Case{"lsq", "items", {liveSlot},
                  "lsq holds slot " + liveSlot +
                      ", which is in fetch_q, not in rob"},
         }) {
        SCOPED_TRACE(c.diag);
        std::string img = warm;
        setArray(img, c.key, c.values, c.section ? ring(img, c.section) : 0);
        expectRejected(img, c.diag);
    }
}

/// access() maps each page to one TLB entry; an image that lists a
/// page twice would leave the second entry unreachable.
TEST(Snapshot, DuplicateTlbPageIsFatal)
{
    std::string img = wrongPathImage();
    const std::size_t at = img.find("\n[tlb]\n");
    ASSERT_NE(at, std::string::npos);
    std::vector<std::string> vpn = arrayValues(img, "vpn", at);
    ASSERT_GE(vpn.size(), 2u);
    vpn[1] = vpn[0];
    setArray(img, "vpn", vpn, at);
    expectRejected(img, "TLB lists page " + vpn[0] + " twice");
}

/// ready_stores and ready_words derive from the restored window: an
/// image whose count or ready bits disagree with it is rejected.
/// Accepted, a zeroed store count changes result bytes and a cleared
/// ready bit ends in "no commit for 100000 cycles".
TEST(Snapshot, ReadyStateMustMatchWindow)
{
    // An image taken once the window holds an address-ready store and
    // a ready entry among its first 64 positions.
    const std::string stores_key = "\nready_stores ";
    Simulator a(smallConfig("C2"));
    a.runWarmup();
    std::string warm;
    std::size_t at = 0, line = 0;
    std::uint64_t stores = 0;
    std::vector<std::string> words;
    for (int i = 0; i < 10'000; ++i) {
        a.core().tick();
        warm = a.saveSnapshot();
        at = warm.find("\n[core]\n");
        ASSERT_NE(at, std::string::npos);
        line = warm.find(stores_key, at);
        ASSERT_NE(line, std::string::npos);
        stores = std::stoull(warm.substr(line + stores_key.size()));
        words = arrayValues(warm, "ready_words", at);
        ASSERT_FALSE(words.empty());
        if (stores > 0 && words[0] != "0")
            break;
    }
    ASSERT_GT(stores, 0u) << "no image held an address-ready store";
    for (std::uint64_t bad : {std::uint64_t{0}, stores - 1, stores + 1}) {
        SCOPED_TRACE(bad);
        std::string img = warm;
        setValue(img, "ready_stores", std::to_string(bad), at);
        expectRejected(img, "state: ready_stores " + std::to_string(bad));
    }

    const std::uint64_t w = std::stoull(words[0]);
    ASSERT_NE(w, 0u) << "no image held a ready entry in its first word";
    for (std::uint64_t edited : {w & (w - 1), w | (w + 1), ~w}) {
        SCOPED_TRACE(edited);
        std::string img = warm;
        std::vector<std::string> v = words;
        v[0] = std::to_string(edited);
        setArray(img, "ready_words", v, at);
        expectRejected(img, "state: ready_words disagree with the window");
    }
}

//
// Snapshot-image mutation fuzz
//

namespace
{

std::vector<std::string>
splitOn(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    for (;;) {
        const std::size_t at = s.find(sep, pos);
        out.push_back(s.substr(pos, at - pos));
        if (at == std::string::npos)
            return out;
        pos = at + 1;
    }
}

std::string
joinOn(const std::vector<std::string> &parts, char sep)
{
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out += sep;
        out += parts[i];
    }
    return out;
}

bool
isDecimal(const std::string &tok)
{
    return !tok.empty() &&
           tok.find_first_not_of("0123456789") == std::string::npos;
}

bool
isHexFloat(const std::string &tok)
{
    const std::string t = tok[0] == '-' ? tok.substr(1) : tok;
    return t.rfind("0x", 0) == 0 || t == "inf" || t == "nan";
}

/** Value lines the saver derives from other restored fields instead
 *  of writing them back verbatim. */
bool
isDerivedLine(const std::string &key)
{
    // The slots not in free_slots, in ascending order.
    return key == "live_slots";
}

} // namespace

/// Deterministic mutation fuzz over a whole snapshot image: a C2
/// image with instructions in flight and a wrong-path cursor, one
/// token of one value line rewritten per mutation (a canonical value
/// of the token's own kind, junk, or the token deleted or
/// duplicated). Each mutated image must fail to restore with a
/// structured error, or restore to a machine whose saved image
/// repeats the mutated line byte for byte: restore may not narrow,
/// wrap or drop a value. Junk never restores. The restored machines
/// are not run; beyond the slot pool's partition into free slots and
/// queues, nothing checks yet that the core's fields agree with one
/// another.
TEST(SnapshotFuzz, MutatedImageFailsOrRoundTrips)
{
    const SimConfig cfg = smallConfig("C2");
    const std::string image = wrongPathImage();
    ASSERT_NE(image.find("\nhas_wrong_cursor 1\n"), std::string::npos);
    std::vector<std::string> lines = splitOn(image, '\n');
    ASSERT_EQ(lines.back(), "");
    lines.pop_back();

    // Mutable lines, grouped by section path and key so that each key
    // is drawn as often as any other, however many lines carry it.
    std::map<std::string, std::vector<std::size_t>> byKey;
    std::vector<std::string> path;
    for (std::size_t i = 1; i < lines.size(); ++i) {
        const std::string &l = lines[i];
        if (l.rfind("[/", 0) == 0) {
            path.pop_back();
        } else if (l[0] == '[') {
            path.push_back(l);
        } else {
            const std::vector<std::string> toks = splitOn(l, ' ');
            if (toks.size() >= 2 &&
                (isDecimal(toks[1]) || isHexFloat(toks[1])))
                byKey[joinOn(path, '/') + " " + toks[0]].push_back(i);
        }
    }
    ASSERT_GT(byKey.size(), 100u);
    std::vector<const std::vector<std::size_t> *> groups;
    std::vector<std::string> groupNames;
    for (const auto &[name, at] : byKey) {
        groupNames.push_back(name);
        groups.push_back(&at);
    }

    // Canonical tokens: decimal integers without leading zeros at the
    // edges of the field types, and "%a" hex-floats.
    const std::string kIntegers[] = {
        "0",          "1",          "255",
        "256",        "4294967295", "4294967296",
        "4294967297", "18446744073709551615", "18446744073709551616",
    };
    std::vector<std::string> doubles;
    for (double d : {0.0, -1.0, 3.0, 1e308, 5e-324, HUGE_VAL})
        doubles.push_back(serde::doubleToHex(d));
    const char *const kJunk[] = {"x", "1x", "-", "0x", "0x1p+0x", "."};

    // Every key first meets every integer edge once, on a line and
    // token of its own drawn at random; random mutations of every
    // kind make up the rest.
    constexpr std::size_t kMutations = 2'000;
    const std::size_t sweep = groups.size() * std::size(kIntegers);
    ASSERT_LT(sweep, kMutations);
    std::mt19937_64 rng(20030208);
    auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    std::map<std::string, std::string> failures; // group -> example
    std::size_t restored = 0;
    for (std::size_t m = 0; m < kMutations; ++m) {
        const std::size_t g = m < sweep ? m / std::size(kIntegers)
                                        : pick(groups.size());
        const std::size_t edge =
            m < sweep ? m % std::size(kIntegers) : pick(std::size(kIntegers));
        const std::size_t li = (*groups[g])[pick(groups[g]->size())];
        std::vector<std::string> toks = splitOn(lines[li], ' ');
        const std::size_t t = 1 + pick(toks.size() - 1);
        bool junk = false;
        switch (m < sweep ? 0 : pick(4)) {
        case 0:
            toks[t] = isDecimal(toks[t])
                          ? kIntegers[edge]
                          : doubles[edge % doubles.size()];
            break;
        case 1:
            toks[pick(2) ? t : 0] = kJunk[pick(std::size(kJunk))];
            junk = true;
            break;
        case 2:
            toks.erase(toks.begin() + t);
            break;
        default:
            toks.insert(toks.begin() + t, toks[t]);
            break;
        }
        const std::string mutated = joinOn(toks, ' ');
        std::vector<std::string> img = lines;
        img[li] = mutated;

        Simulator sim(cfg);
        std::string resaved;
        try {
            FatalCaptureScope capture;
            sim.restoreSnapshot(joinOn(img, '\n') + "\n");
            resaved = sim.saveSnapshot();
        } catch (const FatalError &) {
            continue;
        } catch (const std::exception &e) {
            failures.emplace(groupNames[g],
                             std::string("unstructured error: ") +
                                 e.what());
            continue;
        }
        ++restored;
        const std::string key = toks[0];
        if (junk) {
            failures.emplace(groupNames[g], "junk restored: '" +
                                                mutated.substr(0, 80) +
                                                "'");
            continue;
        }
        const std::vector<std::string> back = splitOn(resaved, '\n');
        const std::string got = li < back.size() ? back[li] : "";
        if (got != mutated && !isDerivedLine(key)) {
            // Name the first token that changed, not the whole line.
            const std::vector<std::string> gotToks = splitOn(got, ' ');
            std::size_t d = 0;
            while (d < toks.size() && d < gotToks.size() &&
                   toks[d] == gotToks[d])
                ++d;
            failures.emplace(
                groupNames[g],
                "token " + std::to_string(d) + " '" +
                    (d < toks.size() ? toks[d] : "") +
                    "' saved back as '" +
                    (d < gotToks.size() ? gotToks[d] : "") + "'");
        }
    }
    std::string report;
    for (const auto &[name, example] : failures)
        report += "\n  " + name + ": " + example;
    EXPECT_TRUE(failures.empty()) << failures.size() << " keys:" << report;
    // Canonical in-range values must mostly restore, or the fuzz tests
    // only the rejection paths.
    EXPECT_GT(restored, kMutations / 4)
        << restored << " mutations restored";
}
