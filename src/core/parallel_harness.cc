#include "parallel_harness.hh"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <map>
#include <mutex>

#include "common/logging.hh"
#include "core/cancel.hh"
#include "core/harness.hh"
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
 * Reorder-window size for a wave of @p jobs: normally a small multiple
 * of the worker count, but pinnable via STSIM_REORDER_WINDOW so tests
 * can force the degenerate window=1 gate and the exact 2*workers
 * boundary. It also caps the classes a memoized wave keeps live. A
 * window wider than the wave admits nothing more, so it is capped at
 * the job count.
 */
std::size_t
reorderWindow(std::size_t workers, std::size_t jobs)
{
    std::size_t window = std::max<std::size_t>(std::size_t{2} * workers, 4);
    if (const char *s = std::getenv("STSIM_REORDER_WINDOW")) {
        // strtoull silently wraps negative input, so parse signed.
        char *end = nullptr;
        long long v = std::strtoll(s, &end, 10);
        if (end && *end == '\0' && v >= 1)
            window = static_cast<std::size_t>(v);
        else
            stsim_warn("ignoring bad STSIM_REORDER_WINDOW='%s'", s);
    }
    return std::min(window, jobs);
}

/**
 * One warmup-equivalence class of a memoized wave. Its warmup runs
 * once, with its first job's config, and every job of the class forks
 * a fresh Simulator from the published snapshot. A job whose class is
 * Unbuilt warms it. Otherwise a worker claims the first Unbuilt class
 * of the wave only while fewer than `window` classes are live, at two
 * points: a job whose class another worker is warming warms it
 * instead of sleeping, then re-checks its own; and a job that has
 * committed its record warms one class before its worker takes
 * another job. A warmup never waits on anything, so no waiter can
 * deadlock the reorder window.
 */
struct WarmupClass
{
    enum class State : std::uint8_t
    {
        Unbuilt,  ///< nobody has claimed the warmup yet
        Building, ///< a worker is running the warmup now
        Ready,    ///< snapshot is published
        Aborted,  ///< the warmup threw; waiters must bail out
    };

    State state = State::Unbuilt;
    std::string snapshot;
    std::size_t firstJob = 0;  ///< whose config runs the warmup
    std::size_t remaining = 0; ///< jobs still needing the snapshot
};

} // namespace

StreamStats
runJobs(const std::vector<SimJob> &jobs, ResultsSink &sink,
        unsigned workers, const CancelToken *cancel)
{
    RunOptions opts;
    opts.workers = workers;
    opts.cancel = cancel;
    return runJobs(jobs, sink, opts);
}

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

    // Warm the shared program cache first — one build per distinct
    // benchmark, itself fanned out over the pool — so the job wave
    // never races workers into duplicate StaticProgram builds.
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
    const std::size_t window = reorderWindow(pool.workers(), jobs.size());

    // Memoized warmup: group the wave by warmup class up front, in
    // first-appearance order. The key computation is pure config
    // serialization -- trivial next to a single simulated cycle.
    std::mutex cacheMu;
    std::condition_variable cacheCv;
    std::vector<WarmupClass> classes;
    std::vector<std::size_t> jobClass(jobs.size(), 0);
    std::size_t unclaimed = 0; // no class before it is Unbuilt
    std::size_t live = 0; // Building, or Ready with jobs to restore
    if (opts.memoizeWarmup) {
        std::map<std::string, std::size_t> byKey;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            std::string key = Simulator::warmupClassKey(jobs[i].cfg);
            auto [it, inserted] =
                byKey.emplace(std::move(key), classes.size());
            if (inserted)
                classes.emplace_back().firstJob = i;
            jobClass[i] = it->second;
            ++classes[it->second].remaining;
        }
    }

    // Lifecycle accounting lives at job granularity: one counter inc
    // or span per job, never per instruction, so the engine's hot
    // path is untouched and results cannot be perturbed.
    obs::Counter &memoHits =
        obs::Registry::instance().counter("runjobs.warmup_memo_hits");
    obs::Counter &memoMisses =
        obs::Registry::instance().counter("runjobs.warmup_memo_misses");
    obs::Counter &jobsCompleted =
        obs::Registry::instance().counter("runjobs.jobs_completed");

    /**
     * Claim Unbuilt class @p c, warm it with @p lock released, and
     * publish its snapshot (or Aborted, rethrowing the warmup's
     * exception). Returns, or throws, with @p lock held.
     */
    auto warmClass = [&](std::size_t c,
                         std::unique_lock<std::mutex> &lock) {
        WarmupClass &wc = classes[c];
        wc.state = WarmupClass::State::Building;
        ++live;
        lock.unlock();
        memoMisses.inc();
        std::string snap;
        try {
            TRACE_SPAN("job.warmup");
            Simulator warm(jobs[wc.firstJob].cfg);
            warm.runWarmup(cancel);
            snap = warm.saveSnapshot();
        } catch (...) {
            lock.lock();
            wc.state = WarmupClass::State::Aborted;
            cacheCv.notify_all();
            throw;
        }
        lock.lock();
        wc.snapshot = std::move(snap);
        wc.state = WarmupClass::State::Ready;
        ++stats.warmupsRun;
        cacheCv.notify_all();
    };

    /** Whether a helper may claim a class now (`cacheMu` held). */
    auto canHelp = [&] {
        while (unclaimed < classes.size() &&
               classes[unclaimed].state != WarmupClass::State::Unbuilt)
            ++unclaimed;
        return unclaimed < classes.size() && live < window;
    };

    /** Run job @p i forked from its class's (possibly fresh) warmup. */
    auto runMemoized = [&](std::size_t i) {
        WarmupClass &wc = classes[jobClass[i]];
        {
            std::unique_lock<std::mutex> lock(cacheMu);
            while (wc.state != WarmupClass::State::Ready) {
                if (wc.state == WarmupClass::State::Aborted)
                    throw JobCancelled();
                // Warming its own class is the progress guarantee, so
                // the `window` cap only limits help for other classes.
                if (wc.state == WarmupClass::State::Unbuilt)
                    warmClass(jobClass[i], lock);
                else if (canHelp())
                    warmClass(unclaimed, lock);
                else
                    cacheCv.wait(lock, [&] {
                        return wc.state != WarmupClass::State::Building ||
                               canHelp();
                    });
            }
        }
        // The warmup is the first job's miss, whoever ran it; every
        // other job of the class is a hit.
        if (i != wc.firstJob)
            memoHits.inc();

        // Every job of the class forks a fresh machine from the
        // snapshot, so the restore path is exercised on all of them
        // and memoized results are bitwise identical to scratch
        // results. The snapshot string is stable here: it is only
        // freed when the last job of the class decrements `remaining`,
        // which cannot happen before this job has restored.
        Simulator sim(jobs[i].cfg);
        sim.restoreSnapshot(wc.snapshot);
        SimResults r;
        {
            TRACE_SPAN("job.measure");
            r = sim.run(cancel);
        }
        {
            std::lock_guard<std::mutex> lock(cacheMu);
            if (--wc.remaining == 0) {
                wc.snapshot.clear();
                wc.snapshot.shrink_to_fit();
                --live;
                cacheCv.notify_all(); // a helper may claim a class now
            }
        }
        return r;
    };

    // In-order streaming commit with a bounded reorder window. A
    // worker may not *start* job i until i is within `window` of the
    // commit frontier, which caps the completed-but-unwritable set at
    // `window` entries however large the wave is. The job at the
    // frontier always passes the gate, so the oldest incomplete job is
    // always running and the wave cannot deadlock.
    std::mutex mu;
    std::condition_variable gate;
    std::size_t next = 0; // commit frontier (submission order)
    std::map<std::size_t, SimResults> pending;
    bool aborted = false; // a job threw: frontier will never advance

    // A job whose result will never reach `pending` leaves the
    // frontier stuck: release every gate-blocked worker or pool.wait()
    // would deadlock instead of rethrowing.
    auto abortWave = [&] {
        {
            std::lock_guard<std::mutex> lock(mu);
            aborted = true;
        }
        gate.notify_all();
    };

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        pool.submit([&, i] {
            {
                TRACE_SPAN("job.queued");
                std::unique_lock<std::mutex> lock(mu);
                // next <= i until job i commits, so this cannot wrap.
                gate.wait(lock,
                          [&] { return aborted || i - next < window; });
                if (aborted)
                    return;
            }
            SimResults r;
            try {
                // The upfront check makes cancellation prompt for jobs
                // that have not started; the token handed to run()
                // covers the frontier job, which always holds a
                // worker, so a fired token always surfaces.
                if (cancel && cancel->cancelled())
                    throw JobCancelled();
                if (opts.memoizeWarmup) {
                    r = runMemoized(i);
                } else if (opts.fromSnapshot) {
                    Simulator sim(jobs[i].cfg);
                    sim.restoreSnapshot(*opts.fromSnapshot);
                    TRACE_SPAN("job.measure");
                    r = sim.run(cancel);
                } else {
                    // Warmup and measurement run as two explicit
                    // phases on one machine; runWarmup() is a no-op-
                    // if-done prefix of run(), so this is the same
                    // simulation whether or not anyone is tracing.
                    Simulator sim(jobs[i].cfg);
                    {
                        TRACE_SPAN("job.warmup");
                        sim.runWarmup(cancel);
                    }
                    TRACE_SPAN("job.measure");
                    r = sim.run(cancel);
                }
            } catch (...) {
                abortWave();
                throw; // surfaces through pool.wait()
            }
            r.experiment = jobs[i].experiment;

            {
                TRACE_SPAN("job.commit");
                std::lock_guard<std::mutex> lock(mu);
                if (aborted)
                    return;
                if (!opts.memoizeWarmup && !opts.fromSnapshot)
                    ++stats.warmupsRun; // scratch jobs warm themselves
                jobsCompleted.inc();
                pending.emplace(i, std::move(r));
                stats.maxPending =
                    std::max(stats.maxPending, pending.size());
                while (!pending.empty() &&
                       pending.begin()->first == next) {
                    // Consume the record before writing, and mark the
                    // abort while still holding the lock on a throwing
                    // write: no drain (they are serialized under `mu`,
                    // which also spares sinks their own locking) can
                    // ever re-attempt an index or commit past a
                    // failure.
                    SimResults out = std::move(pending.begin()->second);
                    pending.erase(pending.begin());
                    const std::size_t idx = next++;
                    gate.notify_all();
                    try {
                        sink.write(idx, out);
                    } catch (...) {
                        aborted = true;
                        gate.notify_all();
                        throw; // lock released by unwinding
                    }
                }
            }

            // Warm ahead: with this job's record already handed over,
            // the worker warms the wave's next unclaimed class before
            // taking another job, so later classes' warmups overlap
            // the forks of earlier ones instead of waiting for their
            // first job to pass the gate.
            if (opts.memoizeWarmup) {
                try {
                    std::unique_lock<std::mutex> lock(cacheMu);
                    if (canHelp())
                        warmClass(unclaimed, lock);
                } catch (...) {
                    abortWave();
                    throw;
                }
            }
        });
    }
    pool.wait();
    sink.flush();
    return stats;
}

namespace
{

/** Commits a wave into a preallocated vector (in-memory callers). */
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

} // namespace

std::vector<SimResults>
runJobs(const std::vector<SimJob> &jobs, unsigned workers)
{
    std::vector<SimResults> results(jobs.size());
    VectorSink sink(results);
    runJobs(jobs, sink, workers);
    return results;
}

std::vector<SimResults>
runJobs(const std::vector<SimJob> &jobs, const RunOptions &opts)
{
    std::vector<SimResults> results(jobs.size());
    VectorSink sink(results);
    runJobs(jobs, sink, opts);
    return results;
}

//
// Harness methods that fan out over the pool (kept here so the
// serial harness core stays free of threading concerns).
//

void
Harness::computeBaselines(unsigned workers)
{
    std::vector<SimJob> jobs;
    std::vector<std::string> missing;
    for (const std::string &b : benchmarks()) {
        if (baselines_.count(b))
            continue;
        SimJob j;
        j.cfg = base_;
        j.cfg.benchmark = b;
        Experiment::byName("baseline").applyTo(j.cfg);
        j.experiment = "baseline";
        jobs.push_back(std::move(j));
        missing.push_back(b);
    }
    std::vector<SimResults> results = runJobs(jobs, workers);
    for (std::size_t i = 0; i < missing.size(); ++i)
        baselines_.emplace(missing[i], std::move(results[i]));
}

std::vector<Harness::SuiteRows>
Harness::runMatrix(const std::vector<Experiment> &exps, unsigned workers)
{
    NullResultsSink sink;
    return runMatrix(exps, sink, workers);
}

std::vector<Harness::SuiteRows>
Harness::runMatrix(const std::vector<Experiment> &exps,
                   ResultsSink &sink, unsigned workers)
{
    computeBaselines(workers);

    const std::vector<std::string> &benches = benchmarks();
    std::vector<SimJob> jobs;
    jobs.reserve(exps.size() * benches.size());
    for (const Experiment &exp : exps) {
        for (const std::string &b : benches) {
            SimJob j;
            j.cfg = base_;
            j.cfg.benchmark = b;
            exp.applyTo(j.cfg);
            j.experiment = exp.name;
            jobs.push_back(std::move(j));
        }
    }

    // Stream full results to the caller's sink while folding each one
    // down to its four relative metrics as it commits — only the small
    // metric tables stay resident, experiment-major, benchmark-minor.
    class MetricsTee : public TeeSink
    {
      public:
        MetricsTee(Harness &h, ResultsSink &inner,
                   const std::vector<std::string> &benches,
                   std::vector<SuiteRows> &tables)
            : TeeSink(inner), h_(h), benches_(benches), tables_(tables)
        {
        }

      protected:
        void
        onResult(std::uint64_t index, const SimResults &r) override
        {
            const std::string &bench = benches_[index % benches_.size()];
            tables_[index / benches_.size()].emplace_back(
                bench, RelativeMetrics::compute(
                           h_.baselines_.at(bench), r));
        }

      private:
        Harness &h_;
        const std::vector<std::string> &benches_;
        std::vector<SuiteRows> &tables_;
    };

    std::vector<SuiteRows> tables(exps.size());
    for (SuiteRows &rows : tables)
        rows.reserve(benches.size() + 1);
    MetricsTee tee(*this, sink, benches, tables);
    runJobs(jobs, tee, workers);

    for (SuiteRows &rows : tables)
        rows.emplace_back("Average", averageMetrics(rows));
    return tables;
}

} // namespace stsim
