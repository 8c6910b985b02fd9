/**
 * @file
 * Quickstart: simulate one benchmark on the baseline core and under
 * Selective Throttling's headline configuration (C2), then print the
 * paper's four metrics.
 *
 * Usage: quickstart [benchmark] [instructions]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/experiment.hh"
#include "core/report.hh"
#include "core/simulator.hh"

using namespace stsim;

int
main(int argc, char **argv)
{
    std::string bench = argc > 1 ? argv[1] : "go";
    std::uint64_t insts = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                   : 1'000'000;

    SimConfig cfg;
    cfg.benchmark = bench;
    cfg.maxInstructions = insts;

    // Baseline: 8-wide, 14-stage core, 8 KB gshare, no throttling.
    SimConfig base_cfg = cfg;
    Experiment::byName("baseline").applyTo(base_cfg);
    SimResults base = Simulator(base_cfg).run();

    // C2: VLC -> fetch stall; LC -> fetch/4 + selection throttling.
    SimConfig c2_cfg = cfg;
    Experiment::byName("C2").applyTo(c2_cfg);
    SimResults c2 = Simulator(c2_cfg).run();

    RelativeMetrics m = RelativeMetrics::compute(base, c2);

    std::printf("benchmark            : %s (%llu instructions)\n",
                bench.c_str(),
                static_cast<unsigned long long>(insts));
    std::printf("baseline IPC         : %.3f\n", base.ipc);
    std::printf("baseline power       : %.1f W\n", base.avgPowerW);
    std::printf("baseline energy      : %.4f J\n", base.energyJ);
    std::printf("gshare miss rate     : %.1f%%\n",
                100.0 * base.condMissRate);
    std::printf("wrong-path fetch     : %.1f%%\n",
                100.0 * base.core.wrongPathFetchFrac());
    std::printf("mis-speculation power: %.1f%% of total\n",
                100.0 * base.wastedEnergyFrac());
    std::printf("\nSelective Throttling C2 vs baseline:\n");
    std::printf("  speedup            : %.3f\n", m.speedup);
    std::printf("  power savings      : %.1f%%\n", m.powerSavings);
    std::printf("  energy savings     : %.1f%%\n", m.energySavings);
    std::printf("  E-D improvement    : %.1f%%\n", m.edImprovement);
    std::printf("  C2 SPEC / PVN      : %.0f%% / %.0f%%\n",
                100.0 * c2.spec, 100.0 * c2.pvn);
    return 0;
}
