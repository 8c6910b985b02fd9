/**
 * @file
 * Fixed-size worker pool for the experiment engine: executes
 * independent simulation jobs concurrently while keeping results
 * deterministic and thread-count-independent (each job owns its
 * inputs and writes only its own output slot; callers commit results
 * in submission order).
 */

#ifndef STSIM_CORE_RUN_POOL_HH
#define STSIM_CORE_RUN_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hh"

namespace stsim
{

/**
 * A fixed-size thread pool with a FIFO work queue.
 *
 * Worker count resolution: an explicit constructor argument wins;
 * otherwise the STSIM_JOBS environment variable; otherwise the
 * hardware concurrency. Either way the pool starts at most
 * kMaxWorkers threads. Jobs must not touch shared mutable state
 * unless they synchronize it themselves — the standard pattern is one
 * Simulator per job writing into a preallocated result slot, so the
 * result of a wave is identical for any worker count.
 */
class RunPool
{
  public:
    /** The ceiling on every pool's worker count, however requested. */
    static constexpr unsigned kMaxWorkers = 256;

    /**
     * @param workers Worker threads, capped at kMaxWorkers; 0 resolves
     *     via defaultWorkers().
     */
    explicit RunPool(unsigned workers = 0);

    /** Drains the queue (waits for all submitted jobs) before exit. */
    ~RunPool();

    RunPool(const RunPool &) = delete;
    RunPool &operator=(const RunPool &) = delete;

    /** Number of worker threads in this pool. */
    unsigned workers() const { return static_cast<unsigned>(threads_.size()); }

    /** Enqueue one job; returns immediately. */
    void submit(std::function<void()> job);

    /**
     * Block until every submitted job has finished. Rethrows the first
     * exception any job raised (subsequent ones are dropped).
     */
    void wait();

    /**
     * Run @p fn(0) .. @p fn(n-1) across the pool and wait. Equivalent
     * to n submit() calls plus wait(); index order of side effects is
     * unspecified, so @p fn must write only to its own slot.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

    /**
     * Worker count used when none is requested explicitly: the
     * STSIM_JOBS environment variable when it decodes through
     * args::decodeU64 (digits only, within 64 bits) to at least 1,
     * clamped to kMaxWorkers; else, with a warning if it is set,
     * std::thread::hardware_concurrency(), else 1.
     */
    static unsigned defaultWorkers();

  private:
    void workerLoop(unsigned idx);

    /// @name Idle-worker bitmask (guarded by mu_)
    /// @{
    /**
     * One bit per parked worker plus one condition variable each.
     * submit() claims the lowest-indexed idle worker with a ctz scan
     * and notifies only that worker's cv, so a job wakes exactly one
     * thread (no thundering herd through a shared cv) and work
     * concentrates on low-numbered -- recently active, cache-warm --
     * workers. A worker re-sets its own bit each time it re-checks an
     * empty queue, so a claim whose job was drained by another worker
     * cannot strand the claimed thread unreachable.
     */
    void
    setIdle(unsigned idx)
    {
        idleBits_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    }

    void
    clearIdle(unsigned idx)
    {
        idleBits_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    }

    /** Claim (clear) the lowest-indexed idle worker; -1 when none. */
    int claimIdleWorker();
    /// @}

    // Process-wide gauges (shared across pools): how many jobs sit
    // queued and how many workers are parked waiting for work. Two
    // relaxed atomic ops per job -- nowhere near any hot path.
    obs::Gauge &queueDepth_;
    obs::Gauge &idleWorkers_;

    std::vector<std::thread> threads_;
    std::deque<std::function<void()>> queue_;
    std::mutex mu_;
    std::vector<std::uint64_t> idleBits_; ///< parked workers, by index
    std::unique_ptr<std::condition_variable[]> cvWorker_; ///< per worker
    std::condition_variable cvIdle_;  ///< signals wait(): all jobs done
    std::size_t inFlight_ = 0;        ///< queued + currently executing
    std::exception_ptr firstError_;
    bool stopping_ = false;
};

} // namespace stsim

#endif // STSIM_CORE_RUN_POOL_HH
