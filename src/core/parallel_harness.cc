#include "parallel_harness.hh"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>
#include <optional>

#include "common/arg_parse.hh"
#include "common/logging.hh"
#include "core/cancel.hh"
#include "core/results_sink.hh"
#include "core/run_pool.hh"
#include "core/simulator.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace stsim
{

namespace
{

/**
 * Reorder-window size for a wave of @p tasks: normally a small
 * multiple of the worker count, but pinnable via STSIM_REORDER_WINDOW
 * so tests can force the degenerate window=1 gate and the exact
 * 2*workers boundary. A window wider than the wave admits nothing
 * more, so it is capped at the task count.
 */
std::size_t
reorderWindow(std::size_t workers, std::size_t tasks)
{
    std::size_t window = std::max<std::size_t>(std::size_t{2} * workers, 4);
    if (const char *s = std::getenv("STSIM_REORDER_WINDOW")) {
        std::optional<std::uint64_t> v =
            args::decodeU64(s, std::numeric_limits<std::size_t>::max());
        if (v && *v >= 1)
            window = static_cast<std::size_t>(*v);
        else
            stsim_warn("ignoring bad STSIM_REORDER_WINDOW='%s'", s);
    }
    return std::min(window, tasks);
}

} // namespace

StreamStats
runJobs(const std::vector<SimJob> &jobs, ResultsSink &sink,
        const RunOptions &opts)
{
    stsim_assert(!(opts.memoizeWarmup && opts.fromSnapshot),
                 "memoizeWarmup and fromSnapshot are mutually "
                 "exclusive");
    unsigned workers = opts.workers;
    const CancelToken *cancel = opts.cancel;
    StreamStats stats;
    if (jobs.empty()) {
        sink.flush();
        return stats;
    }

    // Warm the shared program cache first: one build per distinct
    // benchmark, all in parallel across the pool. programFor is
    // single-flight, so the wave could not build a program twice
    // anyway; without this pass, though, the first job of each
    // benchmark would build its program on its own worker, and jobs
    // that share it would wait on that one build.
    std::vector<std::string> names;
    for (const SimJob &j : jobs) {
        if (!j.cfg.customProfile &&
            std::find(names.begin(), names.end(), j.cfg.benchmark) ==
                names.end()) {
            names.push_back(j.cfg.benchmark);
        }
    }
    RunPool pool(workers);
    pool.parallelFor(names.size(), [&](std::size_t i) {
        Simulator::programFor(names[i]);
    });

    // A task is the jobs one machine runs: one job, or in a memoized
    // wave one warmup class (first-appearance order), which warms up
    // once and serves every job of the class from one measured sweep.
    // The key computation is pure config serialization -- trivial next
    // to a single simulated cycle.
    std::vector<std::vector<std::size_t>> tasks;
    if (opts.memoizeWarmup) {
        std::map<std::string, std::size_t> byKey;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            auto [it, inserted] = byKey.emplace(
                Simulator::warmupClassKey(jobs[i].cfg), tasks.size());
            if (inserted)
                tasks.emplace_back();
            tasks[it->second].push_back(i);
        }
    } else {
        tasks.resize(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i)
            tasks[i].push_back(i);
    }
    const std::size_t window = reorderWindow(pool.workers(), tasks.size());

    // Lifecycle accounting lives at task granularity: one counter inc
    // or span per task or job, never per instruction, so the engine's
    // hot path is untouched and results cannot be perturbed.
    obs::Counter &memoHits =
        obs::Registry::instance().counter("runjobs.warmup_memo_hits");
    obs::Counter &memoMisses =
        obs::Registry::instance().counter("runjobs.warmup_memo_misses");
    obs::Counter &jobsCompleted =
        obs::Registry::instance().counter("runjobs.jobs_completed");

    /** Run @p task on one machine: its jobs' results, in task order. */
    auto runTask = [&](const std::vector<std::size_t> &task) {
        Simulator sim(jobs[task.front()].cfg);
        if (opts.fromSnapshot) {
            sim.restoreSnapshot(*opts.fromSnapshot);
        } else {
            // Warmup and measurement run as two explicit phases on one
            // machine; runWarmup() is a no-op-if-done prefix of run(),
            // so this is the same simulation whether or not anyone is
            // tracing.
            TRACE_SPAN("job.warmup");
            sim.runWarmup(cancel);
        }
        TRACE_SPAN("job.measure");
        if (task.size() == 1)
            return std::vector<SimResults>{sim.run(cancel)};
        std::vector<SimConfig> cfgs;
        cfgs.reserve(task.size());
        for (std::size_t i : task)
            cfgs.push_back(jobs[i].cfg);
        return sim.runSweep(cfgs, cancel);
    };

    // In-order streaming commit with a bounded reorder window. A
    // worker may not *start* task t until t is within `window` of the
    // first unfinished task, which caps the tasks whose results are
    // completed but unwritable however large the wave is. The first
    // unfinished task always passes the gate and holds the commit
    // frontier, so the wave cannot deadlock.
    std::mutex mu;
    std::condition_variable gate;
    std::size_t next = 0; // commit frontier (submission order)
    std::size_t unfinished = 0; // first task not yet in `pending`
    std::vector<bool> finished(tasks.size(), false);
    std::map<std::size_t, SimResults> pending;
    bool aborted = false; // a task threw: frontier will never advance

    // A task whose results will never reach `pending` leaves the
    // frontier stuck: release every gate-blocked worker or pool.wait()
    // would deadlock instead of rethrowing.
    auto abortWave = [&] {
        {
            std::lock_guard<std::mutex> lock(mu);
            aborted = true;
        }
        gate.notify_all();
    };

    for (std::size_t t = 0; t < tasks.size(); ++t) {
        pool.submit([&, t] {
            const std::vector<std::size_t> &task = tasks[t];
            {
                TRACE_SPAN("job.queued");
                std::unique_lock<std::mutex> lock(mu);
                // unfinished <= t until task t finishes: no wrap.
                gate.wait(lock, [&] {
                    return aborted || t - unfinished < window;
                });
                if (aborted)
                    return;
            }
            std::vector<SimResults> rs;
            try {
                // The upfront check makes cancellation prompt for tasks
                // that have not started; the token handed to the
                // simulator covers the first unfinished task, which
                // always holds a worker, so a fired token surfaces.
                if (cancel && cancel->cancelled())
                    throw JobCancelled();
                rs = runTask(task);
            } catch (...) {
                abortWave();
                throw; // surfaces through pool.wait()
            }
            if (opts.memoizeWarmup) {
                // The class's warmup is its first job's miss; every
                // other job of the class is a hit.
                memoMisses.inc();
                memoHits.inc(task.size() - 1);
            }

            TRACE_SPAN("job.commit");
            std::lock_guard<std::mutex> lock(mu);
            if (aborted)
                return;
            if (!opts.fromSnapshot)
                ++stats.warmupsRun;
            for (std::size_t k = 0; k < task.size(); ++k) {
                rs[k].experiment = jobs[task[k]].experiment;
                pending.emplace(task[k], std::move(rs[k]));
            }
            jobsCompleted.inc(task.size());
            stats.maxPending = std::max(stats.maxPending, pending.size());
            finished[t] = true;
            while (unfinished < tasks.size() && finished[unfinished])
                ++unfinished;
            gate.notify_all();
            // Consume each record before writing it, and mark the abort
            // while still holding the lock on a throwing write or flush:
            // no drain (they are serialized under `mu`, which also
            // spares sinks their own locking) can ever re-attempt an
            // index or commit past a failure. One flush per frontier
            // advance hands the consumer every record as it commits.
            const std::size_t first = next;
            try {
                while (!pending.empty() && pending.begin()->first == next) {
                    SimResults out = std::move(pending.begin()->second);
                    pending.erase(pending.begin());
                    sink.write(next++, out);
                }
                if (next != first)
                    sink.flush();
            } catch (...) {
                aborted = true;
                gate.notify_all();
                throw; // lock released by unwinding
            }
        });
    }
    pool.wait();
    sink.flush();
    return stats;
}

} // namespace stsim
