/**
 * @file
 * Named job suites for the sharded runner and CI: fully-specified
 * SimJob lists (manifest content) for every paper artifact and for the
 * pinned golden matrix the shard-equivalence gate runs. `stsim_runner
 * report` renders each suite's table from its dumped records
 * (core/report.hh), reading the table's layout from these jobs.
 */

#ifndef STSIM_CORE_SUITES_HH
#define STSIM_CORE_SUITES_HH

#include <string>
#include <vector>

#include "core/parallel_harness.hh"

namespace stsim
{

/**
 * Jobs of a named suite, in canonical submission order. Every suite
 * but golden runs the paper's 2M measured / 200K warmup instructions;
 * `manifest --insts/--warmup` shortens them. "The 8 benchmarks" are
 * benchmarkNames(), and "8 baselines" are their unthrottled runs.
 *
 *  - "golden": the pinned CI matrix -- {crafty, go, twolf, parser} x
 *    {baseline, A3, C2, PG} at 10K measured / 2K warmup commits, plus
 *    two 24-stage deep-pipeline jobs (crafty/C2, go/baseline). Small
 *    enough to run on every PR, wide enough to cover every control
 *    mechanism; changing it invalidates recorded shard outputs, so
 *    treat its contents as pinned.
 *  - "fig1": 8 baselines, then oracle-fetch, oracle-decode and
 *    oracle-select over the 8 benchmarks (32 jobs).
 *  - "fig3" / "fig4" / "fig5": 8 baselines, then the Figure 3 (A1-A6,
 *    PG), Figure 4 (B1-B8, PG) or Figure 5 (C1-C6, PG) series over
 *    the 8 benchmarks.
 *  - "fig6": for each pipeline depth 6, 8, ..., 28, 8 baselines then
 *    8 C2 runs at that depth (192 jobs).
 *  - "fig7": for each predictor + estimator budget of 8, 16, 32 and
 *    64 KB and each benchmark, a baseline whose gshare takes the
 *    whole budget, then C2 with half in the gshare and half in the
 *    BPRU estimator (64 jobs).
 *  - "table1" / "table2": the 8 baselines. The jobs are the same, so
 *    one dump serves both reports.
 *  - "conf": per benchmark, the BPRU and then the JRS estimator
 *    attached without throttling (16 jobs, experiments "bpru" and
 *    "jrs").
 *  - "conf-scan": 30 BPRU update rules (missInc 2-6 x correctDec 1-2
 *    x allocValue 3-5, experiment "bpru-INC-DEC-ALLOC"), each over
 *    the 8 benchmarks without throttling (240 jobs).
 *  - "ablation": 8 baselines, then C2, C2 with the perfect estimator
 *    ("C2-perfect"), C1, no-select on both LC and VLC ("c2-vlcns")
 *    and all-or-nothing fetch stalls with no-select ("aon") over the
 *    8 benchmarks (48 jobs).
 *
 * Fatals on an unknown name.
 */
std::vector<SimJob> suiteJobs(const std::string &name);

/** All known suite names, in the order suiteJobs() documents them. */
const std::vector<std::string> &suiteNames();

} // namespace stsim

#endif // STSIM_CORE_SUITES_HH
