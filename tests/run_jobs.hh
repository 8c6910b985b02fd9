/**
 * @file
 * Test-side forms of the streaming engine: every program calls
 * runJobs(jobs, sink, RunOptions); these wrap it for tests that pass
 * a bare worker count or want the whole wave in memory.
 */

#ifndef STSIM_TESTS_RUN_JOBS_HH
#define STSIM_TESTS_RUN_JOBS_HH

#include <cstdint>
#include <vector>

#include "core/parallel_harness.hh"
#include "core/results_sink.hh"

namespace stsim
{

/** The streaming engine with @p workers threads and @p cancel. */
inline StreamStats
runJobs(const std::vector<SimJob> &jobs, ResultsSink &sink,
        unsigned workers = 0, const CancelToken *cancel = nullptr)
{
    RunOptions opts;
    opts.workers = workers;
    opts.cancel = cancel;
    return runJobs(jobs, sink, opts);
}

/** Commits a wave into a preallocated vector. */
class VectorSink : public ResultsSink
{
  public:
    explicit VectorSink(std::vector<SimResults> &out) : out_(out) {}

    void
    write(std::uint64_t index, const SimResults &r) override
    {
        out_[index] = r;
    }

  private:
    std::vector<SimResults> &out_;
};

/** The whole wave in memory, in submission order. */
inline std::vector<SimResults>
runJobs(const std::vector<SimJob> &jobs, const RunOptions &opts)
{
    std::vector<SimResults> results(jobs.size());
    VectorSink sink(results);
    runJobs(jobs, sink, opts);
    return results;
}

/** As above, with @p workers threads. */
inline std::vector<SimResults>
runJobs(const std::vector<SimJob> &jobs, unsigned workers = 0)
{
    RunOptions opts;
    opts.workers = workers;
    return runJobs(jobs, opts);
}

} // namespace stsim

#endif // STSIM_TESTS_RUN_JOBS_HH
