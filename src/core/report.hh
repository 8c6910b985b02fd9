/**
 * @file
 * Paper tables from simulation records. The paper compares every
 * configuration with the baseline machine and averages over the eight
 * benchmarks; this module holds that arithmetic (RelativeMetrics,
 * averageMetrics, relativeGroups) and renders each suite's table from
 * the records of its jobs (printReport). `stsim_runner report` and
 * the tests both use it, so the arithmetic exists once.
 */

#ifndef STSIM_CORE_REPORT_HH
#define STSIM_CORE_REPORT_HH

#include <functional>
#include <istream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/parallel_harness.hh"
#include "core/sim_results.hh"

namespace stsim
{

/** Baseline-relative improvements, in percent (the paper's four plots). */
struct RelativeMetrics
{
    double speedup = 1.0;       ///< ratio (>1 is faster)
    double powerSavings = 0.0;  ///< %
    double energySavings = 0.0; ///< %
    double edImprovement = 0.0; ///< %

    /** Compute experiment-vs-baseline metrics. */
    static RelativeMetrics compute(const SimResults &baseline,
                                   const SimResults &experiment);
};

/** Labelled metric rows: one per benchmark, maybe an "Average" row. */
using MetricRows = std::vector<std::pair<std::string, RelativeMetrics>>;

/**
 * Arithmetic mean of @p rows (the paper's "Average" bars), skipping
 * any row labelled "Average". Panics when no other row is left.
 */
RelativeMetrics averageMetrics(const MetricRows &rows);

/** The rows of the jobs that share one grouping key. */
struct MetricGroup
{
    std::string key;
    MetricRows rows; ///< one per benchmark, closed by "Average"
};

/**
 * Compare every non-baseline job of a wave with the last job before it
 * that is a "baseline" of the same benchmark, and group the rows by
 * @p key (by default the experiment name). Groups and their rows keep
 * first-appearance order, and each group closes with an "Average"
 * row. Fatals when a job has no baseline before it.
 */
std::vector<MetricGroup>
relativeGroups(const std::vector<SimJob> &jobs,
               const std::vector<SimResults> &results,
               const std::function<std::string(const SimJob &)> &key = {});

/**
 * Read a complete JSONL record stream (`dump` or `merge` output) of
 * @p jobs: exactly one record per job, indices 0..N-1 in order, and
 * record i naming job i's benchmark and experiment. Fatals with the
 * offending line otherwise.
 */
std::vector<SimResults> readSuiteRecords(std::istream &in,
                                         const std::vector<SimJob> &jobs);

/**
 * Print the tables of @p suite (a suiteNames() entry) from the records
 * of its jobs. The layout -- rows, groups, depths, budgets, estimators
 * -- comes from @p jobs, and the paper rows from core/paper.hh.
 */
void printReport(const std::string &suite, const std::vector<SimJob> &jobs,
                 const std::vector<SimResults> &results, std::ostream &os);

} // namespace stsim

#endif // STSIM_CORE_REPORT_HH
