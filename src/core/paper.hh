/**
 * @file
 * The paper's reference values: every number the reproduction is
 * compared with, stored once as data, each with the place in the paper
 * that gives it. The report tables print them beside the measured rows
 * (core/report.hh). Table 2's per-benchmark targets live in
 * BenchmarkProfile instead, because the workloads are fitted to them.
 */

#ifndef STSIM_CORE_PAPER_HH
#define STSIM_CORE_PAPER_HH

#include <string_view>
#include <vector>

namespace stsim::paper
{

/**
 * One value the paper reports. Ratios (speedup) are plain numbers,
 * savings and shares are percent, and power is watts.
 */
struct Ref
{
    std::string_view artifact; ///< suite whose table shows it ("fig5")
    std::string_view row;      ///< experiment, depth, KB, unit, estimator
    std::string_view metric;   ///< speedup|power|energy|ed|share|wasted|
                               ///< watts|spec|pvn
    double lo;                 ///< the value, or a range's low end
    double hi;                 ///< equal to lo unless the paper gives a range
    bool approx;               ///< the paper gives it as "about"
    std::string_view cite;     ///< where the paper gives it
};

/** Every reference value, grouped by artifact. */
const std::vector<Ref> &references();

/** The value for (artifact, row, metric); null when the paper gives none. */
const Ref *find(std::string_view artifact, std::string_view row,
                std::string_view metric);

} // namespace stsim::paper

#endif // STSIM_CORE_PAPER_HH
