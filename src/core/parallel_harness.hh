/**
 * @file
 * Parallel experiment engine: turns lists of fully-specified
 * simulation jobs into results using a RunPool. All paths -- the
 * in-memory vector API, the Harness matrix waves, and the sharded
 * stsim_runner -- share one streaming commit path: results are handed
 * to a ResultsSink in submission order as jobs complete, behind a
 * bounded reorder window, so the output is bitwise identical for any
 * worker count and peak memory does not grow with matrix size.
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
     * the reorder window (a small multiple of the worker count), never
     * by the number of jobs -- the "streaming, not accumulating"
     * guarantee a big sweep relies on.
     */
    std::size_t maxPending = 0;

    /**
     * Warmup phases actually executed (memoized waves only; equals the
     * job count otherwise). With memoization this is the number of
     * distinct warmup-equivalence classes -- at most one warmup per
     * class, which is the memoization win being measured.
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
     * Warmup once per warmup-equivalence class
     * (Simulator::warmupClassKey), with the config of the class's
     * first job, and fork every job of the class from the in-memory
     * snapshot. Every job restores into a fresh Simulator from the
     * snapshot, so a memoized wave is bitwise identical to a scratch
     * wave; only the repeated warmups are saved.
     *
     * Warmups run side by side: a job whose class another worker is
     * warming warms the wave's next unwarmed class (first-appearance
     * order) instead of waiting, as long as fewer than reorder-window
     * classes are being warmed or still hold a snapshot, then
     * re-checks its own. A snapshot is freed as soon as the last job
     * of its class has restored.
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
 * Each job constructs its own Simulator, so the only shared state is
 * the read-mostly program cache (internally synchronized). Results
 * are independent of @p workers. Workers that run too far ahead of
 * the in-order commit frontier are paused (bounded reorder window),
 * which caps held results without limiting steady-state parallelism.
 *
 * sink.write() calls are serialized and in submission order;
 * sink.flush() runs once after the last write.
 *
 * When @p cancel is non-null, it is checked before each job starts
 * and polled inside Simulator::run; a fired token makes the wave
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
