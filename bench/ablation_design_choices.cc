/**
 * @file
 * Ablation study of three design choices behind the headline
 * configuration C2:
 *
 *  1. estimator quality — C2 under the realistic BPRU estimator vs a
 *     perfect (oracle) estimator: how much of the remaining E-D gap
 *     is confidence precision rather than mechanism;
 *  2. selection throttling placement — no-select on LC only (the
 *     paper's C2) vs on both LC and VLC vs none (C1 = A5);
 *  3. graded response — C2's LC fetch/4 vs an all-or-nothing variant
 *     that stalls fetch for both levels (A6-with-noselect), isolating
 *     the value of *selective* throttling over uniform gating.
 */

#include <iostream>

#include "bench_common.hh"

using namespace stsim;
using namespace stsim::bench;

namespace
{

Experiment
custom(const std::string &name, ThrottleAction lc, ThrottleAction vlc,
       ConfKind conf = ConfKind::Bpru)
{
    Experiment e;
    e.name = name;
    e.description = name;
    e.confKind = conf;
    e.specControl.mode = SpecControlMode::Selective;
    e.specControl.policy = ThrottlePolicy::make(name, lc, vlc);
    return e;
}

} // namespace

int
main()
{
    Harness h(benchConfig());

    constexpr BandwidthLevel F = BandwidthLevel::Full;
    constexpr BandwidthLevel Q = BandwidthLevel::Quarter;
    constexpr BandwidthLevel S = BandwidthLevel::Stall;

    TextTable t(metricHeader("variant"));
    t.setTitle("Ablation: Selective Throttling design choices "
               "(average of 8 benchmarks)");

    // 1. Mechanism under realistic vs oracle confidence.
    Experiment c2 = Experiment::byName("C2");
    t.addRow(metricCells("C2 (BPRU estimator)",
                         h.runSuite(c2).back().second));
    Experiment c2_perfect = c2;
    c2_perfect.name = "C2-perfect";
    c2_perfect.confKind = ConfKind::Perfect;
    t.addRow(metricCells("C2 (perfect estimator)",
                         h.runSuite(c2_perfect).back().second));

    t.addSeparator();

    // 2. Where the no-select bit applies.
    t.addRow(metricCells(
        "no-select: none (C1)",
        h.runSuite(Experiment::byName("C1")).back().second));
    t.addRow(metricCells(
        "no-select: LC only (C2)",
        h.runSuite(custom("c2-again", {Q, F, true}, {S, F, false}))
            .back()
            .second));
    t.addRow(metricCells(
        "no-select: LC+VLC",
        h.runSuite(custom("c2-vlcns", {Q, F, true}, {S, F, true}))
            .back()
            .second));

    t.addSeparator();

    // 3. Graded response vs all-or-nothing gating.
    t.addRow(metricCells(
        "graded (C2)",
        h.runSuite(custom("graded", {Q, F, true}, {S, F, false}))
            .back()
            .second));
    t.addRow(metricCells(
        "all-or-nothing + noselect",
        h.runSuite(custom("aon", {S, F, true}, {S, F, true}))
            .back()
            .second));

    t.print(std::cout);
    return 0;
}
