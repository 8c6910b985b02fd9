/**
 * @file
 * Unit tests for the Wattch-style power model: cc3 scaling, idle
 * floor, energy accumulation, wrong-path attribution, size scaling,
 * and extra meters fed the same activity.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "power/power_model.hh"
#include "power/power_params.hh"

using namespace stsim;

namespace
{

PowerParams
simpleParams()
{
    PowerParams p;
    p.frequencyHz = 1e9; // 1 ns cycles for easy math
    for (PUnit u : kAllPUnits) {
        p.setPeak(u, 10.0);
        p.setPorts(u, 2.0);
    }
    return p;
}

} // namespace

TEST(PowerModel, IdleCycleBurnsFloor)
{
    PowerModel pm(simpleParams());
    pm.beginCycle();
    pm.endCycle();
    // 11 units x 10 W x 10% x 1 ns.
    EXPECT_NEAR(pm.totalEnergy(), 11 * 1.0e-9, 1e-12);
    EXPECT_DOUBLE_EQ(pm.wastedEnergy(), 0.0);
}

TEST(PowerModel, FullActivityBurnsPeak)
{
    PowerModel pm(simpleParams());
    pm.beginCycle();
    for (PUnit u : kAllPUnits) {
        if (u != PUnit::Clock)
            pm.record(u, 2.0); // saturate both ports
    }
    pm.endCycle();
    EXPECT_NEAR(pm.totalEnergy(), 11 * 10.0e-9, 1e-12);
}

TEST(PowerModel, LinearInActivity)
{
    PowerModel pm(simpleParams());
    pm.beginCycle();
    pm.record(PUnit::Alu, 1.0); // half the ports
    pm.endCycle();
    double alu = pm.unitEnergy(PUnit::Alu);
    // 10 W * (0.1 + 0.9 * 0.5) * 1 ns.
    EXPECT_NEAR(alu, 10.0 * 0.55e-9, 1e-13);
}

TEST(PowerModel, ActivityClampsAtPorts)
{
    PowerModel pm(simpleParams());
    pm.beginCycle();
    pm.record(PUnit::Alu, 50.0);
    pm.endCycle();
    EXPECT_NEAR(pm.unitEnergy(PUnit::Alu), 10.0e-9, 1e-13);
}

TEST(PowerModel, WrongPathAttribution)
{
    PowerModel pm(simpleParams());
    pm.beginCycle();
    pm.record(PUnit::Alu, 2.0, 1.0); // half the accesses wrong-path
    pm.endCycle();
    // Wrong path owns half the unit's whole energy this cycle.
    EXPECT_NEAR(pm.unitWastedEnergy(PUnit::Alu),
                pm.unitEnergy(PUnit::Alu) * 0.5, 1e-13);
}

TEST(PowerModel, ClockFollowsMeanActivity)
{
    PowerModel pm(simpleParams());
    pm.beginCycle();
    for (PUnit u : kAllPUnits)
        if (u != PUnit::Clock)
            pm.record(u, 2.0);
    pm.endCycle();
    // All units saturated -> clock at full tilt too.
    EXPECT_NEAR(pm.unitEnergy(PUnit::Clock), 10.0e-9, 1e-13);
}

TEST(PowerModel, Cc0IgnoresActivity)
{
    PowerParams p = simpleParams();
    p.style = ClockGatingStyle::cc0;
    PowerModel pm(p);
    pm.beginCycle();
    pm.endCycle();
    EXPECT_NEAR(pm.totalEnergy(), 11 * 10.0e-9, 1e-12);
}

TEST(PowerModel, AvgPowerAndSeconds)
{
    PowerModel pm(simpleParams());
    for (int i = 0; i < 1000; ++i) {
        pm.beginCycle();
        pm.endCycle();
    }
    EXPECT_NEAR(pm.seconds(), 1000e-9, 1e-12);
    EXPECT_NEAR(pm.avgPower(), 11.0 * 1.0, 1e-9); // 11 W floor total
}

TEST(PowerModel, ResetStats)
{
    PowerModel pm(simpleParams());
    pm.beginCycle();
    pm.record(PUnit::Alu, 2.0, 2.0);
    pm.endCycle();
    pm.resetStats();
    EXPECT_EQ(pm.cycles(), 0u);
    EXPECT_DOUBLE_EQ(pm.totalEnergy(), 0.0);
    EXPECT_DOUBLE_EQ(pm.wastedEnergy(), 0.0);
    EXPECT_DOUBLE_EQ(pm.unitEnergy(PUnit::Alu), 0.0);
}

TEST(PowerModel, ExtraMeterMatchesStandaloneModelBitForBit)
{
    // The host meters under the calibrated cc3 defaults; each extra
    // meter must see exactly what a model built from its own
    // parameters sees when fed the same record() stream directly.
    PowerParams cc3 = PowerParams::calibratedDefaults();
    cc3.idleFactor = 0.2;
    cc3.frequencyHz = 2.0e9;
    PowerParams cc0 = PowerParams::calibratedDefaults();
    cc0.style = ClockGatingStyle::cc0;

    PowerModel host(PowerParams::calibratedDefaults());
    PowerModel meter3(cc3), meter0(cc0);
    PowerModel alone3(cc3), alone0(cc0);
    host.addMeter(meter3);
    host.addMeter(meter0);

    Rng rng(7);
    for (int cycle = 0; cycle < 20'000; ++cycle) {
        host.beginCycle();
        alone3.beginCycle();
        alone0.beginCycle();
        // A few units per cycle, sometimes the same unit twice and
        // sometimes none at all (a fully quiet cycle).
        for (std::uint64_t n = rng.below(6); n > 0; --n) {
            auto u = static_cast<PUnit>(rng.below(kNumPUnits - 1));
            double count = static_cast<double>(rng.below(5));
            double wrong = static_cast<double>(
                rng.below(static_cast<std::uint64_t>(count) + 1));
            host.record(u, count, wrong);
            alone3.record(u, count, wrong);
            alone0.record(u, count, wrong);
        }
        host.endCycle();
        alone3.endCycle();
        alone0.endCycle();
    }
    host.clearMeters();

    for (auto [meter, alone] : {std::pair{&meter3, &alone3},
                                std::pair{&meter0, &alone0}}) {
        ASSERT_EQ(meter->cycles(), alone->cycles());
        EXPECT_EQ(meter->totalEnergy(), alone->totalEnergy());
        EXPECT_EQ(meter->wastedEnergy(), alone->wastedEnergy());
        EXPECT_EQ(meter->avgPower(), alone->avgPower());
        EXPECT_EQ(meter->seconds(), alone->seconds());
        for (PUnit u : kAllPUnits) {
            EXPECT_EQ(meter->unitEnergy(u), alone->unitEnergy(u))
                << punitName(u);
            EXPECT_EQ(meter->unitWastedEnergy(u),
                      alone->unitWastedEnergy(u))
                << punitName(u);
            EXPECT_EQ(meter->meanActivity(u), alone->meanActivity(u))
                << punitName(u);
        }
    }
    // The meters saw other parameters, not the host's numbers.
    EXPECT_NE(meter3.totalEnergy(), host.totalEnergy());
    EXPECT_NE(meter0.totalEnergy(), host.totalEnergy());
}

TEST(PowerModel, MeterAttachesOnlyAtTheFirstCycle)
{
    PowerModel host(simpleParams());
    PowerModel meter(simpleParams());
    host.beginCycle();
    host.endCycle();
    FatalCaptureScope capture;
    EXPECT_THROW(host.addMeter(meter), FatalError);

    PowerModel fresh(simpleParams());
    EXPECT_THROW(fresh.addMeter(host), FatalError);
}

TEST(PowerParams, CalibratedDefaultsArePositive)
{
    PowerParams p = PowerParams::calibratedDefaults();
    double total = 0.0;
    for (PUnit u : kAllPUnits) {
        EXPECT_GT(p.peak(u), 0.0) << punitName(u);
        EXPECT_GT(p.portsOf(u), 0.0) << punitName(u);
        total += p.peak(u);
    }
    EXPECT_GT(total, 56.4); // peaks exceed the average by design
}

TEST(PowerParams, BpredSizeScalingSqrtLaw)
{
    PowerParams p = PowerParams::calibratedDefaults();
    double base = p.peak(PUnit::Bpred);
    p.scaleBpredSize(32 * 1024); // 4x the 8 KB reference
    EXPECT_NEAR(p.peak(PUnit::Bpred), base * 2.0, 1e-9);
}

TEST(PowerParams, CycleSeconds)
{
    PowerParams p = PowerParams::calibratedDefaults();
    EXPECT_NEAR(p.cycleSeconds(), 1.0 / 1.2e9, 1e-18); // 1200 MHz
}

TEST(PowerUnits, NamesMatchTable1)
{
    EXPECT_STREQ(punitName(PUnit::ICache), "icache");
    EXPECT_STREQ(punitName(PUnit::Window), "window");
    EXPECT_STREQ(punitName(PUnit::Clock), "clock");
    EXPECT_EQ(kAllPUnits.size(), kNumPUnits);
}
