/**
 * @file
 * Parallel experiment engine: turns lists of fully-specified
 * simulation jobs into results using a RunPool. All paths -- the
 * in-memory vector API the examples and tests use, and stsim_runner's
 * dump, run and dispatch over a suite's manifest -- share one
 * streaming commit path: results are handed to a ResultsSink in
 * submission order as jobs complete, behind a bounded reorder window,
 * so the output is bitwise identical for any worker count and peak
 * memory does not grow with matrix size.
 */

#ifndef STSIM_CORE_PARALLEL_HARNESS_HH
#define STSIM_CORE_PARALLEL_HARNESS_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/fields.hh"
#include "core/sim_config.hh"
#include "core/sim_results.hh"

namespace stsim
{

class CancelToken;
class ResultsSink;

/** One fully-specified simulation job. */
struct SimJob
{
    SimConfig cfg;          ///< must already name its benchmark
    std::string experiment; ///< stamped into SimResults::experiment
};

/** A manifest line names the experiment before the config. */
template <FieldsOf<SimJob> S, typename V>
void
visitFields(S &s, V &&v)
{
    v("experiment", s.experiment);
    v("cfg", s.cfg);
}

/** Engine diagnostics for one wave. */
struct StreamStats
{
    /**
     * High-water mark of results held for in-order commit. Bounded by
     * the results of the tasks the reorder window admits (a small
     * multiple of the worker count; a task is one job, or one warmup
     * class of a memoized wave), never by the number of jobs alone --
     * the "streaming, not accumulating" guarantee a big sweep relies
     * on. A memoized wave whose classes interleave in the manifest
     * also holds finished classes' later jobs until the frontier
     * reaches them.
     */
    std::size_t maxPending = 0;

    /**
     * Warmup phases actually executed: one per job in a scratch wave,
     * one per distinct warmup-equivalence class in a memoized wave
     * (the memoization win being measured), and none in a
     * fromSnapshot wave.
     */
    std::size_t warmupsRun = 0;
};

/** Knobs for a runJobs wave. */
struct RunOptions
{
    /** Worker threads; 0 resolves STSIM_JOBS / hardware. */
    unsigned workers = 0;

    /** Cooperative cancellation; may be null. */
    const CancelToken *cancel = nullptr;

    /**
     * Simulate each warmup-equivalence class
     * (Simulator::warmupClassKey) once: one machine warms up with the
     * config of the class's first job, then one Simulator::runSweep
     * measures to the class's longest run length and collects every
     * job of the class at the cycle where its own run would stop, its
     * energy read from a meter with its own power parameters. Jobs of
     * a class differ only in run length and power, and the pipeline
     * never reads the power model, so a memoized wave is bitwise
     * identical to a scratch wave. No snapshot is saved or restored.
     *
     * A class is one task of the reorder window, so classes run side
     * by side on the pool in first-appearance order. A class with
     * many distinct power sets runs them all on one worker, and each
     * extra power set repeats the power model's per-cycle work.
     */
    bool memoizeWarmup = false;

    /**
     * Fork every job of the wave from this pre-warmed snapshot
     * (Simulator::saveSnapshot image) instead of running its own
     * warmup. All jobs must share the snapshot's warmup class
     * (Simulator::restoreSnapshot fatals otherwise), the pointed-to
     * string must outlive the wave, and the option is mutually
     * exclusive with memoizeWarmup.
     */
    const std::string *fromSnapshot = nullptr;
};

/**
 * Run every job on a RunPool, committing each result to @p sink in
 * submission order as soon as its contiguous prefix has completed.
 *
 * Each task (one job, or one warmup class of a memoized wave)
 * constructs its own Simulator, so the only shared state is the
 * read-mostly program cache (internally synchronized). Results are
 * independent of @p workers. Workers that run too far ahead of the
 * first unfinished task are paused (bounded reorder window), which
 * caps held results without limiting steady-state parallelism.
 *
 * sink.write() calls are serialized and in submission order;
 * sink.flush() runs, under the same lock, after every commit that
 * wrote records, and once at the end, so a stream sink hands each
 * record to its consumer as it commits. A throwing write or flush (a
 * stream sink's SinkWriteError) aborts the wave: no task starts after
 * it, running tasks finish, and the exception leaves this call.
 *
 * When @p cancel is non-null, it is checked before each task starts
 * and polled inside the simulator; a fired token makes the wave
 * throw JobCancelled out of this call after releasing every
 * gate-blocked worker (same path as a throwing job or sink). The
 * reorder window can be pinned with STSIM_REORDER_WINDOW (tests).
 *
 * @param workers Worker threads; 0 resolves STSIM_JOBS / hardware.
 */
StreamStats runJobs(const std::vector<SimJob> &jobs, ResultsSink &sink,
                    unsigned workers = 0,
                    const CancelToken *cancel = nullptr);

/** Full-options form of the streaming engine. */
StreamStats runJobs(const std::vector<SimJob> &jobs, ResultsSink &sink,
                    const RunOptions &opts);

/**
 * Convenience wrapper over the streaming engine for callers that want
 * the whole wave in memory: returns results in submission order.
 */
std::vector<SimResults> runJobs(const std::vector<SimJob> &jobs,
                                unsigned workers = 0);

/** In-memory wrapper with full options. */
std::vector<SimResults> runJobs(const std::vector<SimJob> &jobs,
                                const RunOptions &opts);

} // namespace stsim

#endif // STSIM_CORE_PARALLEL_HARNESS_HH
