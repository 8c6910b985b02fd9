/**
 * @file
 * Serialization-layer tests: serde(parse(serialize(x))) == x for
 * configurations (byte-identical re-serialization plus field checks)
 * and bitwise-equal doubles for SimResults, across every named
 * experiment, custom profiles, deep pipelines and finalized configs;
 * golden files that pin the bytes of every text format; and a
 * deterministic mutation fuzz test over the one JSON parser.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "common/logging.hh"
#include "core/experiment.hh"
#include "core/job_serde.hh"
#include "core/results_sink.hh"
#include "core/simulator.hh"
#include "trace/profile.hh"

using namespace stsim;

namespace
{

/** Bit-pattern equality: distinguishes -0.0 from 0.0, unlike ==. */
void
expectSameBits(double a, double b, const char *what)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a),
              std::bit_cast<std::uint64_t>(b))
        << what << ": " << a << " vs " << b;
}

SimConfig
roundTrip(const SimConfig &cfg)
{
    return serde::configFromJson(serde::toJson(cfg));
}

} // namespace

TEST(DoubleHex, RoundTripsAwkwardValues)
{
    for (double d : {0.0, -0.0, 1.0, 0.1 + 0.2, 1.0 / 3.0, 56.4e-9,
                     1.2e9, 5e-324 /* min subnormal */}) {
        expectSameBits(d, serde::doubleFromHex(serde::doubleToHex(d)),
                       "hex round trip");
    }
    // Decimal doubles are accepted too (hand-written manifests).
    EXPECT_EQ(serde::doubleFromHex("1.5"), 1.5);
}

TEST(ConfigSerde, DefaultConfigReserializesByteIdentically)
{
    SimConfig cfg;
    std::string json = serde::toJson(cfg);
    EXPECT_EQ(json, serde::toJson(roundTrip(cfg)));
    EXPECT_EQ(json.find('\n'), std::string::npos) << "must be one line";
}

TEST(ConfigSerde, EveryNamedExperimentRoundTrips)
{
    for (const char *name :
         {"baseline", "oracle-fetch", "oracle-decode", "oracle-select",
          "A1", "A2", "A3", "A4", "A5", "A6", "B1", "B2", "B3", "B4",
          "B5", "B6", "B7", "B8", "C1", "C2", "C3", "C4", "C5", "C6",
          "PG"}) {
        SimConfig cfg;
        Experiment::byName(name).applyTo(cfg);
        SimConfig back = roundTrip(cfg);
        EXPECT_EQ(serde::toJson(cfg), serde::toJson(back)) << name;
        EXPECT_EQ(back.confKind, cfg.confKind) << name;
        EXPECT_EQ(back.specControl.mode, cfg.specControl.mode) << name;
        EXPECT_EQ(back.specControl.policy.name,
                  cfg.specControl.policy.name)
            << name;
        EXPECT_EQ(back.core.oracle, cfg.core.oracle) << name;
    }
}

TEST(ConfigSerde, NonDefaultFieldsSurvive)
{
    SimConfig cfg;
    cfg.benchmark = "twolf";
    cfg.maxInstructions = 123'456;
    cfg.warmupInstructions = 7'890;
    cfg.runSeed = 99;
    cfg.pipelineDepth = 24;
    cfg.bpred.kind = BpredConfig::Kind::Bimodal;
    cfg.bpred.predictorBytes = 64 * 1024;
    cfg.confKind = ConfKind::Jrs;
    cfg.confBytes = 2 * 1024;
    cfg.jrsThreshold = 7;
    cfg.bpruParams.missInc = 4;
    cfg.bpruParams.tagBits = 12;
    cfg.core.ruuSize = 256;
    cfg.core.lsqSize = 128;
    cfg.memory.l2.sizeBytes = 1024 * 1024;
    cfg.memory.memLatency = 42;
    cfg.power.idleFactor = 0.1 + 0.2; // not exactly representable
    cfg.power.setPeak(PUnit::Clock, 19.0625);

    SimConfig back = roundTrip(cfg);
    EXPECT_EQ(serde::toJson(cfg), serde::toJson(back));
    EXPECT_EQ(back.benchmark, "twolf");
    EXPECT_EQ(back.maxInstructions, 123'456u);
    EXPECT_EQ(back.pipelineDepth, 24u);
    EXPECT_EQ(back.bpred.kind, BpredConfig::Kind::Bimodal);
    EXPECT_EQ(back.confKind, ConfKind::Jrs);
    EXPECT_EQ(back.jrsThreshold, 7u);
    EXPECT_EQ(back.core.ruuSize, 256u);
    EXPECT_EQ(back.memory.memLatency, 42u);
    expectSameBits(back.power.idleFactor, cfg.power.idleFactor,
                   "idleFactor");
    expectSameBits(back.power.peak(PUnit::Clock), 19.0625, "peak");
}

TEST(ConfigSerde, CustomProfileRoundTrips)
{
    SimConfig cfg;
    cfg.customProfile = findProfile("gcc");
    cfg.customProfile->name = "gcc-tweaked";
    cfg.customProfile->fracLoop = 0.123456789;
    cfg.customProfile->seed = 7;

    SimConfig back = roundTrip(cfg);
    ASSERT_TRUE(back.customProfile.has_value());
    EXPECT_EQ(back.customProfile->name, "gcc-tweaked");
    EXPECT_EQ(back.customProfile->seed, 7u);
    expectSameBits(back.customProfile->fracLoop, 0.123456789,
                   "fracLoop");
    EXPECT_EQ(serde::toJson(cfg), serde::toJson(back));

    // Absent profile stays absent.
    SimConfig plain;
    EXPECT_FALSE(roundTrip(plain).customProfile.has_value());
}

TEST(ConfigSerde, FinalizedFlagSurvives)
{
    // A finalized config must parse back as finalized, or the power
    // scaling in finalize() would be applied twice downstream.
    SimConfig cfg;
    Experiment::byName("C2").applyTo(cfg);
    cfg.finalize();
    ASSERT_TRUE(cfg.finalized);
    SimConfig back = roundTrip(cfg);
    EXPECT_TRUE(back.finalized);
    EXPECT_EQ(serde::toJson(cfg), serde::toJson(back));
    // finalize() on the parsed copy is the guarded no-op.
    SimConfig twice = back;
    twice.finalize();
    EXPECT_EQ(serde::toJson(twice), serde::toJson(back));
}

TEST(JobSerde, ManifestEntryRoundTrips)
{
    SimJob job;
    job.cfg.benchmark = "parser";
    job.cfg.maxInstructions = 10'000;
    Experiment::byName("A5").applyTo(job.cfg);
    job.experiment = "A5";

    SimJob back = serde::jobFromJson(serde::toJson(job));
    EXPECT_EQ(back.experiment, "A5");
    EXPECT_EQ(back.cfg.benchmark, "parser");
    EXPECT_EQ(serde::toJson(job), serde::toJson(back));
}

TEST(ResultsSerde, SimulatedResultsRoundTripBitwise)
{
    SimConfig cfg;
    cfg.benchmark = "crafty";
    cfg.maxInstructions = 5'000;
    cfg.warmupInstructions = 1'000;
    Experiment::byName("C2").applyTo(cfg);
    SimResults r = Simulator(cfg).run();
    r.experiment = "C2";

    SimResults back = serde::resultsFromJson(serde::toJson(r));
    EXPECT_EQ(back.benchmark, r.benchmark);
    EXPECT_EQ(back.experiment, r.experiment);
    EXPECT_EQ(back.core.cycles, r.core.cycles);
    EXPECT_EQ(back.core.committedInsts, r.core.committedInsts);
    EXPECT_EQ(back.core.fetchThrottled, r.core.fetchThrottled);
    EXPECT_EQ(back.core.noSelectSkips, r.core.noSelectSkips);
    expectSameBits(back.ipc, r.ipc, "ipc");
    expectSameBits(back.seconds, r.seconds, "seconds");
    expectSameBits(back.avgPowerW, r.avgPowerW, "avgPowerW");
    expectSameBits(back.energyJ, r.energyJ, "energyJ");
    expectSameBits(back.edProduct, r.edProduct, "edProduct");
    expectSameBits(back.wastedEnergyJ, r.wastedEnergyJ, "wastedEnergyJ");
    expectSameBits(back.condMissRate, r.condMissRate, "condMissRate");
    expectSameBits(back.spec, r.spec, "spec");
    expectSameBits(back.pvn, r.pvn, "pvn");
    expectSameBits(back.il1MissRate, r.il1MissRate, "il1MissRate");
    expectSameBits(back.dl1MissRate, r.dl1MissRate, "dl1MissRate");
    expectSameBits(back.l2MissRate, r.l2MissRate, "l2MissRate");
    for (std::size_t i = 0; i < kNumPUnits; ++i) {
        expectSameBits(back.unitEnergyJ[i], r.unitEnergyJ[i],
                       "unitEnergyJ");
        expectSameBits(back.unitWastedJ[i], r.unitWastedJ[i],
                       "unitWastedJ");
        expectSameBits(back.unitActivity[i], r.unitActivity[i],
                       "unitActivity");
    }
    EXPECT_EQ(serde::toJson(r), serde::toJson(back));
}

TEST(ResultsSerde, ResultRecordKeepsIndex)
{
    SimResults r;
    r.benchmark = "go";
    r.experiment = "baseline";
    r.ipc = 1.25;
    std::string line = serde::resultRecordToJson(41, r);
    EXPECT_EQ(serde::resultRecordIndex(line), 41u);
    auto [idx, back] = serde::resultRecordFromJson(line);
    EXPECT_EQ(idx, 41u);
    EXPECT_EQ(back.benchmark, "go");
    expectSameBits(back.ipc, 1.25, "ipc");
}

TEST(SerdeDeath, MalformedInputIsFatal)
{
    EXPECT_EXIT(serde::configFromJson("{not json"),
                ::testing::ExitedWithCode(1), "serde");
    EXPECT_EXIT(serde::configFromJson("{}"),
                ::testing::ExitedWithCode(1), "missing key");
    EXPECT_EXIT(serde::resultRecordFromJson("[1,2,3]"),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(serde::doubleFromHex("bogus"),
                ::testing::ExitedWithCode(1), "bad double");
}

TEST(ServeRequestSerde, ManifestRecordParsesWithDefaults)
{
    // A plain manifest line is a valid request: id and deadline
    // default to 0, and the embedded job round-trips intact.
    SimJob j;
    j.cfg.maxInstructions = 8'000;
    j.cfg.benchmark = "go";
    Experiment::byName("baseline").applyTo(j.cfg);
    j.experiment = "baseline";

    serde::ServeRequest req;
    serde::ParseOutcome p = serde::parseServeRequest(serde::toJson(j),
                                                     req);
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_FALSE(req.ping);
    EXPECT_EQ(req.id, 0u);
    EXPECT_EQ(req.deadlineMs, 0u);
    EXPECT_EQ(req.job.experiment, "baseline");
    EXPECT_EQ(req.job.cfg.benchmark, "go");
    EXPECT_EQ(req.job.cfg.maxInstructions, 8'000u);
}

TEST(ServeRequestSerde, IdDeadlineAndPingAreExtracted)
{
    SimJob j;
    j.cfg.benchmark = "go";
    Experiment::byName("baseline").applyTo(j.cfg);
    j.experiment = "baseline";
    std::string rec = serde::toJson(j);
    std::string framed =
        "{\"id\":7,\"deadlineMs\":250," + rec.substr(1);

    serde::ServeRequest req;
    serde::ParseOutcome p = serde::parseServeRequest(framed, req);
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_FALSE(req.ping);
    EXPECT_EQ(req.id, 7u);
    EXPECT_EQ(req.deadlineMs, 250u);

    serde::ServeRequest ping;
    p = serde::parseServeRequest("{\"op\":\"ping\",\"id\":3}", ping);
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_TRUE(ping.ping);
    EXPECT_EQ(ping.id, 3u);
}

TEST(ServeRequestSerde, DeeplyNestedFrameIsRejectedNotACrash)
{
    // The strict parser recurses per nesting level; without a depth
    // cap a ~100KB frame of '[' (well under the line-size cap) would
    // overflow the reader thread's stack -- a SIGSEGV that
    // FatalCaptureScope cannot catch. It must come back as a plain
    // parse error instead.
    serde::ServeRequest req;

    std::string arrays(100'000, '[');
    serde::ParseOutcome p = serde::parseServeRequest(arrays, req);
    EXPECT_FALSE(p.ok);
    EXPECT_NE(p.error.find("nested"), std::string::npos) << p.error;

    std::string objects;
    for (int i = 0; i < 50'000; ++i)
        objects += "{\"a\":";
    p = serde::parseServeRequest(objects, req);
    EXPECT_FALSE(p.ok);
    EXPECT_NE(p.error.find("nested"), std::string::npos) << p.error;

    // Sanity: realistic nesting (a full request is ~5 levels deep) is
    // nowhere near the cap.
    SimJob j;
    j.cfg.benchmark = "go";
    Experiment::byName("baseline").applyTo(j.cfg);
    j.experiment = "baseline";
    p = serde::parseServeRequest(serde::toJson(j), req);
    EXPECT_TRUE(p.ok) << p.error;
}

TEST(ServeRequestSerde, GarbageReturnsFalseInsteadOfExiting)
{
    // The whole point of the non-fatal entry point: hostile frames
    // must produce a failed outcome with a message, never a process
    // exit. Every rejection leaves a non-empty diagnostic.
    serde::ServeRequest req;
    for (const char *bad :
         {"", "not json at all", "[1,2,3]", "{\"experiment\":\"x\"}",
          "{\"op\":\"reboot\"}",
          "{\"experiment\":\"baseline\",\"cfg\":{}}",
          "{\"id\":\"seven\",\"experiment\":\"x\",\"cfg\":{}}"}) {
        serde::ParseOutcome p = serde::parseServeRequest(bad, req);
        EXPECT_FALSE(p.ok) << "accepted: " << bad;
        EXPECT_FALSE(p.error.empty()) << "no diagnostic for: " << bad;
    }
}

TEST(ServeRequestSerde, IntegerAboveItsFieldTypeIsRejected)
{
    // 2^32 + 128 in an unsigned field must not wrap to 128, and 2^64
    // in a 64-bit field must not saturate: both are rejected with a
    // diagnostic, and the 32-bit one names its key.
    SimJob j;
    j.cfg.benchmark = "go";
    j.experiment = "baseline";
    const std::string rec = serde::toJson(j);
    auto with = [&](const std::string &from, const std::string &to) {
        std::string s = rec;
        std::size_t at = s.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        return at == std::string::npos ? s
                                       : s.replace(at, from.size(), to);
    };

    serde::ServeRequest req;
    serde::ParseOutcome p = serde::parseServeRequest(
        with("\"ruuSize\":128", "\"ruuSize\":4294967424"), req);
    EXPECT_FALSE(p.ok) << "ruuSize 2^32+128 ran as "
                       << req.job.cfg.core.ruuSize;
    EXPECT_NE(p.error.find("ruuSize"), std::string::npos) << p.error;

    p = serde::parseServeRequest(
        with("\"runSeed\":42", "\"runSeed\":18446744073709551616"),
        req);
    EXPECT_FALSE(p.ok) << "runSeed 2^64 ran as " << req.job.cfg.runSeed;
    EXPECT_FALSE(p.error.empty());

    // The largest value of each field type still parses.
    p = serde::parseServeRequest(
        with("\"ruuSize\":128", "\"ruuSize\":4294967295"), req);
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_EQ(req.job.cfg.core.ruuSize, 4294967295u);
    p = serde::parseServeRequest(
        with("\"runSeed\":42", "\"runSeed\":18446744073709551615"),
        req);
    ASSERT_TRUE(p.ok) << p.error;
    EXPECT_EQ(req.job.cfg.runSeed, 18446744073709551615u);
}

//
// Format goldens: the bytes of every text format, pinned. The structs
// are built by hand with a distinct value in every field (so a swapped
// or dropped field shows in the diff) and every enum at a non-default
// name; the experiment name carries a comma, a quote and a newline to
// pin JSON escaping and CSV quoting.
//

namespace
{

const char *const kAwkwardName = "golden,\"exp\"\nline";

SimJob
goldenJob()
{
    SimJob job;
    job.experiment = kAwkwardName;
    SimConfig &c = job.cfg;
    c.benchmark = "twolf";

    BenchmarkProfile p;
    p.name = "custom-\\profile";
    p.targetMissRate = 0.101;
    p.condBranchFrac = 0.102;
    p.numBlocks = 2001;
    p.numFuncs = 2002;
    p.fracJumpTerm = 0.103;
    p.fracCallTerm = 0.104;
    p.fracRetTerm = 0.105;
    p.fracLoop = 0.106;
    p.fracPattern = 0.107;
    p.fracBiased = 0.108;
    p.fracChaotic = 0.109;
    p.loopPeriodMin = 3.25;
    p.loopPeriodMax = 41.5;
    p.biasedMissMin = 0.011;
    p.biasedMissMax = 0.312;
    p.chaoticTakenP = 0.513;
    p.fracLoad = 0.214;
    p.fracStore = 0.115;
    p.fracIntMult = 0.016;
    p.fracFpAlu = 0.017;
    p.fracFpMult = 0.0018;
    p.srcChance = 0.719;
    p.depDistP = 0.221;
    p.dataFootprintKB = 2003;
    p.fracStackAccess = 0.322;
    p.fracStreamAccess = 0.423;
    p.hotDataKB = 2004;
    p.hotDataFrac = 0.924;
    p.blockLenScale = 1.325;
    p.biasedTakenFrac = 0.726;
    p.seed = 2005;
    c.customProfile = p;

    c.maxInstructions = 3001;
    c.warmupInstructions = 3002;
    c.runSeed = 3003;

    CoreConfig &k = c.core;
    k.fetchWidth = 101;
    k.decodeWidth = 102;
    k.issueWidth = 103;
    k.commitWidth = 104;
    k.maxTakenBranchesPerFetch = 105;
    k.ruuSize = 106;
    k.lsqSize = 107;
    k.numIntAlu = 108;
    k.numIntMult = 109;
    k.numMemPorts = 110;
    k.numFpAlu = 111;
    k.numFpMult = 112;
    k.pipelineStages = 113;
    k.fetchStages = 114;
    k.decodeStages = 115;
    k.extraExecLatency = 116;
    k.extraDl1Latency = 117;
    k.extraMispredictPenalty = 118;
    k.btbMissPenalty = 119;
    k.oracle = OracleMode::OracleSelect;

    MemoryConfig &m = c.memory;
    m.il1 = CacheConfig{"il1-g", 201, 202, 203, 204};
    m.dl1 = CacheConfig{"dl1-g", 205, 206, 207, 208};
    m.l2 = CacheConfig{"l2-g", 209, 210, 211, 212};
    m.memLatency = 213;
    m.tlbEntries = 214;
    m.pageBytes = 215;
    m.tlbMissPenalty = 216;
    m.dl1ExtraLatency = 217;

    c.pipelineDepth = 301;
    c.bpred.kind = BpredConfig::Kind::Bimodal;
    c.bpred.predictorBytes = 302;
    c.bpred.btbEntries = 303;
    c.bpred.btbWays = 304;
    c.bpred.rasEntries = 305;
    c.confKind = ConfKind::Perfect;
    c.confBytes = 306;
    c.jrsThreshold = 307;
    c.bpruParams.missInc = 308;
    c.bpruParams.correctDec = 309;
    c.bpruParams.allocValue = 310;
    c.bpruParams.tagBits = 311;

    SpecControlConfig &sc = c.specControl;
    sc.mode = SpecControlMode::PipelineGating;
    sc.policy.name = "golden-policy";
    sc.policy.byLevel[0] = {BandwidthLevel::Half, BandwidthLevel::Quarter,
                            true};
    sc.policy.byLevel[1] = {BandwidthLevel::Quarter, BandwidthLevel::Stall,
                            false};
    sc.policy.byLevel[2] = {BandwidthLevel::Stall, BandwidthLevel::Half,
                            true};
    sc.policy.byLevel[3] = {BandwidthLevel::Full, BandwidthLevel::Stall,
                            true};
    sc.gatingThreshold = 312;

    c.power.style = ClockGatingStyle::cc0;
    c.power.idleFactor = 0.0313;
    c.power.frequencyHz = 1.314e9;
    for (std::size_t i = 0; i < kNumPUnits; ++i) {
        c.power.peakWatts[i] = 0.5 + 1.1 * static_cast<double>(i);
        c.power.ports[i] = 40.0 + static_cast<double>(i);
    }
    c.finalized = true;
    return job;
}

SimResults
goldenResults()
{
    SimResults r;
    r.benchmark = "gzip";
    r.experiment = kAwkwardName;
    CoreStats &s = r.core;
    s.cycles = 1001;
    s.committedInsts = 1002;
    s.committedBranches = 1003;
    s.committedCondBranches = 1004;
    s.condMispredicts = 1005;
    s.fetchedInsts = 1006;
    s.fetchedWrongPath = 1007;
    s.decodedInsts = 1008;
    s.decodedWrongPath = 1009;
    s.dispatchedInsts = 1010;
    s.dispatchedWrongPath = 1011;
    s.issuedInsts = 1012;
    s.issuedWrongPath = 1013;
    s.squashes = 1014;
    s.squashedInsts = 1015;
    s.btbMisfetches = 1016;
    s.rasMispredicts = 1017;
    s.fetchIcacheStall = 1018;
    s.fetchRedirectStall = 1019;
    s.fetchThrottled = 1020;
    s.decodeThrottled = 1021;
    s.oracleFetchStall = 1022;
    s.robFullStalls = 1023;
    s.lsqFullStalls = 1024;
    s.noSelectSkips = 1025;
    s.loadsForwarded = 1026;
    s.loadsBlockedByStore = 1027;
    s.oracleSelectSkips = 1028;
    s.oracleDecodeDrops = 18446744073709551615u;
    r.ipc = 1.0 / 3.0;
    r.seconds = 2.5e-4;
    r.avgPowerW = 41.0 + 0.1;
    r.energyJ = 0.0103;
    r.edProduct = -0.0;
    for (std::size_t i = 0; i < kNumPUnits; ++i) {
        double x = static_cast<double>(i);
        r.unitEnergyJ[i] = 1e-3 * (x + 0.1);
        r.unitWastedJ[i] = 1e-4 * (x + 0.2);
        r.unitActivity[i] = 0.01 * (x + 0.3);
    }
    r.wastedEnergyJ = 5e-324;
    r.condMissRate = 0.1 + 0.2;
    r.spec = 0.604;
    r.pvn = 0.405;
    r.il1MissRate = 0.0106;
    r.dl1MissRate = 0.0207;
    r.l2MissRate = 0.308;
    return r;
}

std::string
goldenFlatLine()
{
    return serde::FlatWriter()
        .str("type", "plan")
        .str("manifest", "dir/a,\"b\"\n\tc\\d")
        .u64("zero", 0)
        .u64("max", 18446744073709551615u)
        .str("empty", "")
        .finish();
}

/**
 * Compare @p actual with tests/golden/<name>. On a mismatch the
 * actual bytes land in <name>.actual in the working directory; after
 * checking the diff, copy that file over the golden to accept a
 * deliberate format change.
 */
void
expectGolden(const std::string &name, const std::string &actual)
{
    std::filesystem::path golden =
        std::filesystem::path(__FILE__).parent_path() / "golden" / name;
    std::ifstream in(golden, std::ios::binary);
    std::ostringstream want;
    want << in.rdbuf();
    if (want.str() == actual)
        return;
    std::ofstream(name + ".actual", std::ios::binary) << actual;
    ADD_FAILURE() << golden << " differs from the serializer's output; "
                  << "the actual bytes are in "
                  << std::filesystem::absolute(name + ".actual");
}

} // namespace

TEST(SerdeGolden, ManifestLine)
{
    expectGolden("manifest.jsonl", serde::toJson(goldenJob()) + "\n");
}

TEST(SerdeGolden, ResultRecord)
{
    expectGolden("result_record.jsonl",
                 serde::resultRecordToJson(12345, goldenResults()) +
                     "\n");
}

TEST(SerdeGolden, CsvHeaderAndRow)
{
    expectGolden("results.csv",
                 CsvResultsSink::header() + "\n" +
                     CsvResultsSink::row(12345, goldenResults()) + "\n");
}

TEST(SerdeGolden, FlatRecord)
{
    expectGolden("flat.jsonl", goldenFlatLine() + "\n");
}

TEST(SerdeGolden, GoldenStructsRoundTrip)
{
    // The golden manifest and result record parse back to themselves,
    // so the reader covers every field the writer does.
    std::string job = serde::toJson(goldenJob());
    EXPECT_EQ(serde::toJson(serde::jobFromJson(job)), job);
    std::string rec = serde::resultRecordToJson(7, goldenResults());
    auto [idx, back] = serde::resultRecordFromJson(rec);
    EXPECT_EQ(idx, 7u);
    EXPECT_EQ(serde::resultRecordToJson(idx, back), rec);
}

TEST(FlatRecord, OnlyStringAndUnsignedFieldsAreFlat)
{
    std::vector<serde::FlatField> f;
    for (const char *bad :
         {"", "[]", "\"x\"", "{\"a\":{}}", "{\"a\":[1]}",
          "{\"a\":true}", "{\"a\":false}", "{\"a\":null}",
          "{\"a\":-1}", "{\"a\":+1}", "{\"a\":1.5}", "{\"a\":1e3}",
          "{\"a\":\"\\q\"}", "{\"a\":1}x", "{\"a\":1,}",
          "{\"a\"1}", "{\"a\":\"x}"}) {
        serde::ParseOutcome p = serde::parseFlat(bad, f);
        EXPECT_FALSE(p) << "accepted: " << bad;
        EXPECT_FALSE(p.error.empty()) << bad;
    }
    ASSERT_TRUE(serde::parseFlat(goldenFlatLine(), f));
    ASSERT_EQ(f.size(), 5u);
    EXPECT_EQ(f[1].value, "dir/a,\"b\"\n\tc\\d");
    EXPECT_TRUE(f[1].isString);
    EXPECT_EQ(f[3].value, "18446744073709551615");
    EXPECT_FALSE(f[3].isString);
}

//
// Deterministic mutation fuzz test over the one parser: every input
// yields success or a non-empty diagnostic (never a crash or an exit),
// and whatever parses re-serializes to bytes that parse back to the
// same bytes.
//

namespace
{

std::vector<std::string>
fuzzSeeds()
{
    const std::string manifest = serde::toJson(goldenJob());
    SimJob plain;
    plain.cfg.benchmark = "go";
    plain.experiment = "C2";
    Experiment::byName("C2").applyTo(plain.cfg);
    return {
        manifest,
        "{\"id\":7,\"deadlineMs\":250," + serde::toJson(plain).substr(1),
        "{\"op\":\"ping\",\"id\":1}",
        "{\"op\":\"health\",\"id\":2}",
        "{\"op\":\"metrics\",\"id\":3}",
        serde::resultRecordToJson(9, goldenResults()),
        goldenFlatLine(),
        "{\"c.serve.requests\":12,\"g.serve.inflight\":\"-3\","
        "\"h.serve.queue_us.count\":2,\"h.serve.queue_us.sum\":110,"
        "\"h.serve.queue_us.buckets\":\"4:1,7:1\"}",
    };
}

/** One random edit of @p s; @p seeds feeds splices. */
std::string
mutate(std::string s, const std::vector<std::string> &seeds,
       std::mt19937_64 &rng)
{
    static const char *const kExtreme[] = {
        "18446744073709551616", "-1", "1e999", "\"nan\"", "[]"};
    auto pick = [&](std::size_t n) {
        return n ? static_cast<std::size_t>(rng() % n) : 0;
    };
    switch (rng() % 6) {
      case 0: // bit flip
        if (!s.empty())
            s[pick(s.size())] ^= static_cast<char>(1u << (rng() % 8));
        break;
      case 1: // byte insert
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(
                                 pick(s.size() + 1)),
                 static_cast<char>(rng() % 256));
        break;
      case 2: // byte delete
        if (!s.empty())
            s.erase(pick(s.size()), 1);
        break;
      case 3: // truncation
        s.resize(pick(s.size() + 1));
        break;
      case 4: { // splice with another seed
        const std::string &o = seeds[pick(seeds.size())];
        s = s.substr(0, pick(s.size() + 1)) + o.substr(pick(o.size() + 1));
        break;
      }
      default: { // a digit run becomes an extreme token
        std::size_t at = s.find_first_of("0123456789", pick(s.size()));
        if (at == std::string::npos)
            break;
        std::size_t end = s.find_first_not_of("0123456789", at);
        s.replace(at, (end == std::string::npos ? s.size() : end) - at,
                  kExtreme[pick(std::size(kExtreme))]);
        break;
      }
    }
    return s;
}

} // namespace

TEST(SerdeFuzz, MutatedFramesGiveAnErrorOrARoundTrip)
{
    const std::vector<std::string> seeds = fuzzSeeds();
    std::mt19937_64 rng(20261016);
    std::size_t jobsParsed = 0, flatParsed = 0, resultsParsed = 0;
    for (int n = 0; n < 20'000; ++n) {
        std::string in = seeds[rng() % seeds.size()];
        for (unsigned edits = 1 + rng() % 3; edits; --edits)
            in = mutate(std::move(in), seeds, rng);

        serde::ServeRequest req;
        serde::ParseOutcome p = serde::parseServeRequest(in, req);
        if (!p) {
            ASSERT_FALSE(p.error.empty()) << in;
        } else if (!req.ping && !req.health && !req.metrics) {
            ++jobsParsed;
            std::string once = serde::toJson(req.job);
            serde::ServeRequest again;
            ASSERT_TRUE(serde::parseServeRequest(once, again)) << once;
            ASSERT_EQ(serde::toJson(again.job), once) << in;
        }

        std::vector<serde::FlatField> fields;
        p = serde::parseFlat(in, fields);
        if (!p)
            ASSERT_FALSE(p.error.empty()) << in;
        else
            ++flatParsed;

        FatalCaptureScope scope;
        try {
            auto [idx, r] = serde::resultRecordFromJson(in);
            ++resultsParsed;
            std::string once = serde::resultRecordToJson(idx, r);
            auto [idx2, r2] = serde::resultRecordFromJson(once);
            ASSERT_EQ(serde::resultRecordToJson(idx2, r2), once) << in;
        } catch (const FatalError &) {
        }
    }
    // The mutations must leave enough inputs valid that the round-trip
    // checks run, not just the rejection path.
    EXPECT_GT(jobsParsed, 100u);
    EXPECT_GT(flatParsed, 100u);
    EXPECT_GT(resultsParsed, 100u);
}
