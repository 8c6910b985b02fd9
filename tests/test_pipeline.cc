/**
 * @file
 * Integration tests for the out-of-order core: flow conservation,
 * squash correctness, oracle modes, pipeline-depth mapping and
 * deadlock freedom under every speculation-control mechanism.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/experiment.hh"
#include "core/simulator.hh"
#include "pipeline/core_config.hh"

using namespace stsim;

namespace
{

SimConfig
smallRun(const std::string &bench = "twolf",
         std::uint64_t insts = 30'000)
{
    SimConfig cfg;
    cfg.benchmark = bench;
    cfg.maxInstructions = insts;
    cfg.warmupInstructions = 5'000;
    return cfg;
}

} // namespace

TEST(CoreConfig, DepthMapping14IsBaseline)
{
    CoreConfig c;
    c.applyPipelineDepth(14);
    // front end + 4 backend stages + extra exec == total depth
    EXPECT_EQ(c.fetchStages + c.decodeStages + 4 + c.extraExecLatency,
              14u);
    EXPECT_GE(c.fetchStages, 1u);
    EXPECT_GE(c.decodeStages, 1u);
}

TEST(CoreConfig, DepthMappingMonotonic)
{
    unsigned prev_front = 0, prev_exec = 0;
    for (unsigned d = 6; d <= 28; d += 2) {
        CoreConfig c;
        c.applyPipelineDepth(d);
        unsigned front = c.fetchStages + c.decodeStages;
        EXPECT_EQ(front + 4 + c.extraExecLatency, d);
        EXPECT_GE(front, prev_front);
        EXPECT_GE(c.extraExecLatency, prev_exec);
        prev_front = front;
        prev_exec = c.extraExecLatency;
    }
}

TEST(CoreConfig, BaseLatencies)
{
    EXPECT_EQ(CoreConfig::baseLatency(InstClass::IntAlu), 1u);
    EXPECT_EQ(CoreConfig::baseLatency(InstClass::IntMult), 3u);
    EXPECT_EQ(CoreConfig::baseLatency(InstClass::FpMult), 4u);
}

TEST(Core, CommitsRequestedInstructions)
{
    Simulator sim(smallRun());
    SimResults r = sim.run();
    EXPECT_GE(r.core.committedInsts, 30'000u);
    EXPECT_GT(r.core.cycles, 0u);
    EXPECT_GT(r.ipc, 0.1);
    EXPECT_LT(r.ipc, 8.0);
}

TEST(Core, FlowConservation)
{
    Simulator sim(smallRun());
    SimResults r = sim.run();
    const CoreStats &s = r.core;
    // Everything dispatched was decoded; everything decoded was
    // fetched (modulo what was still in flight at the end).
    EXPECT_LE(s.dispatchedInsts, s.decodedInsts);
    EXPECT_LE(s.issuedInsts, s.dispatchedInsts);
    EXPECT_LE(s.committedInsts, s.issuedInsts);
    // No wrong-path instruction ever commits; the commit/squash split
    // accounts for all dispatched wrong-path work.
    EXPECT_GT(s.fetchedWrongPath, 0u);
    EXPECT_GT(s.squashedInsts, 0u);
}

TEST(Core, MispredictionRateSane)
{
    Simulator sim(smallRun("go", 60'000));
    SimResults r = sim.run();
    EXPECT_GT(r.condMissRate, 0.08);
    EXPECT_LT(r.condMissRate, 0.35);
    EXPECT_GT(r.core.squashes, 100u);
}

TEST(Core, EnergyAccountingConsistent)
{
    Simulator sim(smallRun());
    SimResults r = sim.run();
    EXPECT_GT(r.energyJ, 0.0);
    EXPECT_GT(r.avgPowerW, 10.0);
    EXPECT_LT(r.avgPowerW, 150.0);
    EXPECT_GT(r.wastedEnergyJ, 0.0);
    EXPECT_LT(r.wastedEnergyJ, r.energyJ);
    double unit_sum = 0.0;
    for (double e : r.unitEnergyJ)
        unit_sum += e;
    EXPECT_NEAR(unit_sum, r.energyJ, r.energyJ * 1e-6);
}

TEST(Core, DeterministicAcrossRuns)
{
    SimResults a = Simulator(smallRun()).run();
    SimResults b = Simulator(smallRun()).run();
    EXPECT_EQ(a.core.cycles, b.core.cycles);
    EXPECT_EQ(a.core.committedInsts, b.core.committedInsts);
    EXPECT_DOUBLE_EQ(a.energyJ, b.energyJ);
}

TEST(Core, DeeperPipelineLowersIpc)
{
    SimConfig shallow = smallRun("gzip", 40'000);
    shallow.pipelineDepth = 6;
    SimConfig deep = smallRun("gzip", 40'000);
    deep.pipelineDepth = 28;
    SimResults rs = Simulator(shallow).run();
    SimResults rd = Simulator(deep).run();
    EXPECT_GT(rs.ipc, rd.ipc);
}

TEST(Core, DeeperPipelineFetchesMoreWrongPath)
{
    SimConfig shallow = smallRun("go", 40'000);
    shallow.pipelineDepth = 6;
    SimConfig deep = smallRun("go", 40'000);
    deep.pipelineDepth = 28;
    SimResults rs = Simulator(shallow).run();
    SimResults rd = Simulator(deep).run();
    EXPECT_GT(rd.core.wrongPathFetchFrac(),
              rs.core.wrongPathFetchFrac());
}

TEST(Oracle, FetchNeverFetchesWrongPath)
{
    SimConfig cfg = smallRun("go", 40'000);
    Experiment::byName("oracle-fetch").applyTo(cfg);
    SimResults r = Simulator(cfg).run();
    EXPECT_EQ(r.core.fetchedWrongPath, 0u);
    EXPECT_EQ(r.core.squashedInsts, 0u);
    EXPECT_GT(r.core.oracleFetchStall, 0u);
}

TEST(Oracle, DecodeSuppressesWrongPathEnergyNotFlow)
{
    SimConfig cfg = smallRun("go", 40'000);
    Experiment::byName("oracle-decode").applyTo(cfg);
    SimResults r = Simulator(cfg).run();
    EXPECT_GT(r.core.fetchedWrongPath, 0u);
    EXPECT_GT(r.core.oracleDecodeDrops, 0u);
    EXPECT_EQ(r.core.issuedWrongPath, 0u);
}

TEST(Oracle, SelectBlocksWrongPathIssueOnly)
{
    SimConfig cfg = smallRun("go", 40'000);
    Experiment::byName("oracle-select").applyTo(cfg);
    SimResults r = Simulator(cfg).run();
    EXPECT_GT(r.core.dispatchedWrongPath, 0u);
    EXPECT_EQ(r.core.issuedWrongPath, 0u);
}

TEST(Oracle, SavingsOrderingMatchesFigure1)
{
    // Power savings: fetch > decode > select (Figure 1's shape).
    SimConfig base_cfg = smallRun("go", 60'000);
    SimResults base = Simulator(base_cfg).run();
    auto savings = [&](const char *name) {
        SimConfig cfg = smallRun("go", 60'000);
        Experiment::byName(name).applyTo(cfg);
        SimResults r = Simulator(cfg).run();
        return (base.avgPowerW - r.avgPowerW) / base.avgPowerW;
    };
    double f = savings("oracle-fetch");
    double d = savings("oracle-decode");
    double s = savings("oracle-select");
    EXPECT_GT(f, d);
    EXPECT_GT(d, s);
    EXPECT_GT(s, 0.0);
}

TEST(Throttling, SelectiveReducesEnergyOnGo)
{
    SimConfig base_cfg = smallRun("go", 60'000);
    SimResults base = Simulator(base_cfg).run();
    SimConfig c2_cfg = smallRun("go", 60'000);
    Experiment::byName("C2").applyTo(c2_cfg);
    SimResults c2 = Simulator(c2_cfg).run();
    EXPECT_LT(c2.energyJ, base.energyJ);
    EXPECT_LT(c2.ipc, base.ipc); // some slowdown is expected
    EXPECT_GT(c2.ipc, base.ipc * 0.75); // but bounded
    EXPECT_GT(c2.core.fetchThrottled, 0u);
}

TEST(Throttling, NoSelectSkipsHappenUnderC2)
{
    SimConfig cfg = smallRun("go", 40'000);
    Experiment::byName("C2").applyTo(cfg);
    SimResults r = Simulator(cfg).run();
    EXPECT_GT(r.core.noSelectSkips, 0u);
}

TEST(Throttling, PipelineGatingGatesFetch)
{
    SimConfig cfg = smallRun("go", 40'000);
    Experiment::byName("PG").applyTo(cfg);
    SimResults r = Simulator(cfg).run();
    EXPECT_GT(r.core.fetchThrottled, 0u);
    EXPECT_EQ(r.core.decodeThrottled, 0u);
    EXPECT_EQ(r.core.noSelectSkips, 0u);
}

TEST(Throttling, PerfectEstimatorBeatsRealOnEnergyDelay)
{
    // With oracle confidence, C2 throttles only real mispredictions:
    // slowdown should be smaller than with the realistic estimator.
    SimConfig real_cfg = smallRun("go", 40'000);
    Experiment::byName("C2").applyTo(real_cfg);
    SimConfig perfect_cfg = real_cfg;
    perfect_cfg.confKind = ConfKind::Perfect;
    SimResults real = Simulator(real_cfg).run();
    SimResults perfect = Simulator(perfect_cfg).run();
    EXPECT_GT(perfect.ipc, real.ipc);
}

TEST(Throttling, ConfMetricsPopulated)
{
    SimConfig cfg = smallRun("go", 40'000);
    Experiment::byName("C2").applyTo(cfg);
    SimResults r = Simulator(cfg).run();
    EXPECT_GT(r.spec, 0.0);
    EXPECT_LT(r.spec, 1.0);
    EXPECT_GT(r.pvn, 0.0);
    EXPECT_LT(r.pvn, 1.0);
}

namespace
{

/** The pinned determinism configuration (crafty, 50K measured
 *  commits, 10K warmup) under a named experiment. */
SimConfig
benchConfig(const std::string &exp)
{
    SimConfig cfg;
    cfg.benchmark = "crafty";
    cfg.maxInstructions = 50'000;
    cfg.warmupInstructions = 10'000;
    Experiment::byName(exp).applyTo(cfg);
    return cfg;
}

} // namespace

/**
 * Golden scheduler determinism: the exact cycle counts, event counts
 * and energy doubles of the unthrottled (C0/baseline) bench config,
 * pinned from before the ready-bitmap / calendar-writeback / O(1)
 * store-tracking rework. Any scheduling-order change -- a different
 * issue pick, a reordered writeback, a shifted wakeup -- moves at
 * least one of these. The doubles are compared bit-exactly: the
 * results path uses only IEEE-deterministic arithmetic (+,*,/,sqrt).
 */
TEST(GoldenDeterminism, BaselineBenchConfigIsBitExact)
{
    SimResults r = Simulator(benchConfig("baseline")).run();
    EXPECT_EQ(r.core.cycles, 53943u);
    EXPECT_EQ(r.core.committedInsts, 50001u);
    EXPECT_EQ(r.core.fetchedInsts, 81075u);
    EXPECT_EQ(r.core.fetchedWrongPath, 30974u);
    EXPECT_EQ(r.core.decodedInsts, 74587u);
    EXPECT_EQ(r.core.dispatchedInsts, 67006u);
    EXPECT_EQ(r.core.issuedInsts, 55176u);
    EXPECT_EQ(r.core.issuedWrongPath, 5162u);
    EXPECT_EQ(r.core.squashes, 319u);
    EXPECT_EQ(r.core.squashedInsts, 30895u);
    EXPECT_EQ(r.core.loadsBlockedByStore, 7314u);
    EXPECT_EQ(r.core.loadsForwarded, 11u);
    EXPECT_EQ(r.core.fetchIcacheStall, 424u);
    EXPECT_EQ(r.ipc, 0x1.da95a22d30647p-1);
    EXPECT_EQ(r.energyJ, 0x1.3156440cec345p-9);
    EXPECT_EQ(r.wastedEnergyJ, 0x1.408d4dca6e598p-12);
    EXPECT_EQ(r.avgPowerW, 0x1.9e93cfb20bcd5p+5);
}

/** Same pin for the throttled C2 path: additionally covers the
 *  incremental controller's gating and no-select barrier decisions. */
TEST(GoldenDeterminism, C2BenchConfigIsBitExact)
{
    SimResults r = Simulator(benchConfig("C2")).run();
    EXPECT_EQ(r.core.cycles, 57355u);
    EXPECT_EQ(r.core.committedInsts, 50001u);
    EXPECT_EQ(r.core.fetchedInsts, 73135u);
    EXPECT_EQ(r.core.fetchedWrongPath, 23034u);
    EXPECT_EQ(r.core.issuedInsts, 51906u);
    EXPECT_EQ(r.core.issuedWrongPath, 1895u);
    EXPECT_EQ(r.core.noSelectSkips, 15892u);
    EXPECT_EQ(r.core.fetchThrottled, 18351u);
    EXPECT_EQ(r.core.decodeThrottled, 0u);
    EXPECT_EQ(r.core.loadsBlockedByStore, 6031u);
    EXPECT_EQ(r.ipc, 0x1.be5a14b82019ep-1);
    EXPECT_EQ(r.energyJ, 0x1.3019dca2d8664p-9);
    EXPECT_EQ(r.wastedEnergyJ, 0x1.ac213286dfcddp-13);
    EXPECT_EQ(r.avgPowerW, 0x1.845612c9936f5p+5);
}

/**
 * Second-benchmark pin (go instead of crafty): the golden matrix must
 * not be blind to workload-dependent scheduling paths -- go has a much
 * higher misprediction rate, so squash/refetch waves and controller
 * churn dominate differently than in crafty.
 */
TEST(GoldenDeterminism, GoC2BenchConfigIsBitExact)
{
    SimConfig cfg = benchConfig("C2");
    cfg.benchmark = "go";
    SimResults r = Simulator(cfg).run();
    EXPECT_EQ(r.core.cycles, 90200u);
    EXPECT_EQ(r.core.committedInsts, 50000u);
    EXPECT_EQ(r.core.fetchedInsts, 81297u);
    EXPECT_EQ(r.core.fetchedWrongPath, 31329u);
    EXPECT_EQ(r.core.issuedInsts, 51692u);
    EXPECT_EQ(r.core.issuedWrongPath, 1697u);
    EXPECT_EQ(r.core.noSelectSkips, 37122u);
    EXPECT_EQ(r.core.fetchThrottled, 39883u);
    EXPECT_EQ(r.core.decodeThrottled, 0u);
    EXPECT_EQ(r.core.loadsBlockedByStore, 4638u);
    EXPECT_EQ(r.ipc, 0x1.1bd051bd051bdp-1);
    EXPECT_EQ(r.energyJ, 0x1.7aca4af7c9569p-9);
    EXPECT_EQ(r.wastedEnergyJ, 0x1.3462e1af15c34p-12);
    EXPECT_EQ(r.avgPowerW, 0x1.3393a63b12cc7p+5);
}

/**
 * Deep-pipeline pin (24 stages, the upper half of the Figure 6
 * sweep): covers the longer in-order front end, the extra exec/DL1
 * latency mapping and the correspondingly longer throttle windows.
 */
TEST(GoldenDeterminism, DeepPipelineC2BenchConfigIsBitExact)
{
    SimConfig cfg = benchConfig("C2");
    cfg.pipelineDepth = 24;
    SimResults r = Simulator(cfg).run();
    EXPECT_EQ(r.core.cycles, 86982u);
    EXPECT_EQ(r.core.committedInsts, 50001u);
    EXPECT_EQ(r.core.fetchedInsts, 85424u);
    EXPECT_EQ(r.core.fetchedWrongPath, 35323u);
    EXPECT_EQ(r.core.issuedInsts, 51748u);
    EXPECT_EQ(r.core.issuedWrongPath, 1737u);
    EXPECT_EQ(r.core.noSelectSkips, 26860u);
    EXPECT_EQ(r.core.fetchThrottled, 33298u);
    EXPECT_EQ(r.core.decodeThrottled, 0u);
    EXPECT_EQ(r.core.loadsBlockedByStore, 6034u);
    EXPECT_EQ(r.core.squashes, 321u);
    EXPECT_EQ(r.ipc, 0x1.2651d4bc62652p-1);
    EXPECT_EQ(r.energyJ, 0x1.6f5e00ba555ccp-9);
    EXPECT_EQ(r.wastedEnergyJ, 0x1.290516ae51f81p-12);
    EXPECT_EQ(r.avgPowerW, 0x1.355659740e186p+5);
}

/** Deadlock-freedom sweep: every experiment on every benchmark must
 *  retire its instruction budget (the core's watchdog panics on any
 *  stall longer than 100K cycles). */
class ExperimentSweep
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string>>
{
};

TEST_P(ExperimentSweep, RunsToCompletion)
{
    auto [bench, exp] = GetParam();
    SimConfig cfg = smallRun(bench, 15'000);
    Experiment::byName(exp).applyTo(cfg);
    SimResults r = Simulator(cfg).run();
    EXPECT_GE(r.core.committedInsts, 15'000u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ExperimentSweep,
    ::testing::Combine(
        ::testing::Values("compress", "go", "parser"),
        ::testing::Values("baseline", "A1", "A3", "A6", "B3", "B8",
                          "C2", "C4", "C6", "PG", "oracle-fetch",
                          "oracle-decode", "oracle-select")));

/** Depth sweep: the machine must be stable at every Figure 6 depth. */
class DepthSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(DepthSweep, StableAndSane)
{
    SimConfig cfg = smallRun("twolf", 15'000);
    cfg.pipelineDepth = GetParam();
    SimResults r = Simulator(cfg).run();
    EXPECT_GE(r.core.committedInsts, 15'000u);
    EXPECT_GT(r.ipc, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Figure6Depths, DepthSweep,
                         ::testing::Values(6u, 8u, 10u, 12u, 14u, 16u,
                                           18u, 20u, 22u, 24u, 26u,
                                           28u));
