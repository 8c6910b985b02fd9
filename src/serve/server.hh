/**
 * @file
 * stsim_serve core: a long-lived daemon that accepts SimJob requests
 * as JSONL frames over a Unix or loopback-TCP socket, admission-queues
 * them onto a RunPool, and streams SimResults records back per
 * connection.
 *
 * Wire protocol (one JSON object per '\n'-terminated line each way):
 *
 *   request  {"id":N,"deadlineMs":D,"experiment":E,"cfg":{...}}
 *            -- a manifest record plus an optional client-chosen id
 *               (echoed back, default 0) and optional deadline.
 *   request  {"op":"ping","id":N}      -> {"pong":N}
 *   request  {"op":"health","id":N}    -> {"health":N,"stats":{...},
 *            "fleet":{...}} -- counters plus, under --isolate,
 *            per-worker state (pid, jobs, restarts, backoff stage).
 *   request  {"op":"metrics","id":N}   -> {"metrics":N,
 *            "c.<name>":V,"g.<name>":"V","h.<name>.count":V,...,
 *            "h.<name>.buckets":"idx:count,..."} -- the full process
 *            metrics-registry snapshot as one *flat* record (see
 *            obs/metrics.hh), so clients can parseFlat it and diff
 *            two snapshots' histogram buckets to get window-scoped
 *            quantiles. Health keeps its historical shape.
 *   reply    {"index":ID,"results":{...}}
 *            -- byte-identical to a `stsim_runner dump` record for the
 *               same job, which is what the soak gate diffs against.
 *   reply    {"error":KIND,"id":ID,"detail":"..."}
 *            -- KIND in {parse, oversize, busy, draining, too_large,
 *               bad_request, deadline, cancelled, internal, poison}.
 *
 * Every admitted request produces exactly one reply; replies on a
 * connection may be reordered relative to submission (jobs run
 * concurrently), so clients correlate by id.
 *
 * Robustness policies, engineered in from the start:
 *  - Bounded admission: at most queueCapacity requests admitted but
 *    unfinished, across all clients. Overload => an immediate `busy`
 *    reply, never unbounded memory.
 *  - Deadlines: a reaper thread fires each request's CancelToken when
 *    its deadline passes; the simulate loop polls the token.
 *  - Slow clients: per-connection reply buffers are bounded; a reader
 *    reserves a reply slot *before* admitting a job, so a slow reader
 *    blocks its own connection's reader thread -- never a sim worker,
 *    which hands finished replies off without ever blocking.
 *  - Disconnects: a vanished client's in-flight jobs are cancelled
 *    and its buffered replies dropped.
 *  - SIGPIPE-safe: all socket writes are MSG_NOSIGNAL.
 *  - Graceful drain: beginDrain() stops accepting, answers new frames
 *    with `draining`, lets in-flight work finish (cancelling whatever
 *    remains after drainGraceMs), then closes every connection.
 *  - Process isolation (--isolate): jobs execute in a supervised
 *    fleet of `stsim_runner serve-worker` subprocesses instead of the
 *    in-process RunPool. A worker crash becomes a structured
 *    `internal` reply (after bounded retries) or a `poison`
 *    quarantine, never a daemon exit. See worker_fleet.hh.
 */

#ifndef STSIM_SERVE_SERVER_HH
#define STSIM_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/run_pool.hh"
#include "obs/metrics.hh"
#include "serve/worker_fleet.hh"

namespace stsim
{
namespace serve
{

struct ServeOptions
{
    std::string unixPath;      ///< listen on this Unix socket, or
    int tcpPort = -1;          ///< loopback TCP (-1 off, 0 ephemeral)
    unsigned workers = 0;      ///< sim threads (0 = RunPool default)

    /** Admitted-but-unfinished cap; 0 resolves to 2*workers + 4. */
    std::size_t queueCapacity = 0;
    std::uint64_t defaultDeadlineMs = 0; ///< 0 = none
    std::uint64_t maxDeadlineMs = 0;     ///< clamp requests; 0 = none
    std::uint64_t drainGraceMs = 10'000; ///< cancel leftovers after this

    std::size_t maxLineBytes = 1 << 20;  ///< request frame size cap
    std::size_t replyQueueCap = 64;      ///< buffered replies per conn
    std::size_t maxConnections = 256;

    /**
     * Upper bound on warmup+measured instructions per request; keeps a
     * hostile job from wedging a worker for hours (and from the
     * cycle-budget overflow an absurd maxInstructions could cause).
     */
    std::uint64_t maxJobInstructions = 1'000'000'000;

    /**
     * Execute jobs in a supervised fleet of out-of-process
     * `stsim_runner serve-worker` subprocesses (crash containment)
     * instead of the in-process RunPool. runnerPath names the
     * stsim_runner binary; empty resolves to "stsim_runner" next to
     * the serving executable.
     */
    bool isolate = false;
    std::string runnerPath;
    unsigned jobAttempts = 3;     ///< worker deaths before `internal`
    unsigned poisonThreshold = 2; ///< consecutive kills => quarantine
    std::uint64_t respawnBaseMs = 50;   ///< fleet respawn backoff base
    std::uint64_t respawnCapMs = 5'000; ///< fleet respawn backoff cap
};

/** Monotonic counters; read them after drain for the exit summary. */
struct ServeStats
{
    std::atomic<std::uint64_t> connections{0};
    std::atomic<std::uint64_t> rejectedConnections{0};
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> busy{0};
    std::atomic<std::uint64_t> parseErrors{0};
    std::atomic<std::uint64_t> oversize{0};
    std::atomic<std::uint64_t> badRequests{0};
    std::atomic<std::uint64_t> deadlineCancelled{0};
    std::atomic<std::uint64_t> disconnectCancelled{0};
    std::atomic<std::uint64_t> drainCancelled{0};
    std::atomic<std::uint64_t> internalErrors{0}; ///< fleet gave up
    std::atomic<std::uint64_t> poisonRejected{0}; ///< quarantined jobs
};

class SimServer
{
  public:
    explicit SimServer(ServeOptions opts);
    ~SimServer();

    SimServer(const SimServer &) = delete;
    SimServer &operator=(const SimServer &) = delete;

    /** Bind, listen, and start accepting. */
    void start();

    /** Resolved TCP port (after start(), when tcpPort was 0). */
    int tcpPort() const { return boundTcpPort_; }

    /** Begin graceful drain (idempotent; returns immediately). */
    void beginDrain();

    /**
     * Block until the drain completes: acceptor gone, every
     * connection closed, every admitted job finished. Call after
     * beginDrain(); completion is bounded by drainGraceMs plus one
     * cancellation-poll latency.
     */
    void waitDrained();

    const ServeStats &stats() const { return stats_; }

  private:
    struct Conn;
    struct Inflight;

    void acceptLoop();
    void reaperLoop();
    void readerMain(const std::shared_ptr<Conn> &c);
    void writerMain(const std::shared_ptr<Conn> &c);
    void handleLine(const std::shared_ptr<Conn> &c,
                    const std::string &line);
    void runJob(const std::shared_ptr<Conn> &c,
                const std::shared_ptr<Inflight> &inf);
    void fleetDone(const std::shared_ptr<Conn> &c,
                   const std::shared_ptr<Inflight> &inf,
                   FleetResult res);
    std::string cancelledReply(const Inflight &inf);
    void finishAdmitted(const std::shared_ptr<Conn> &c,
                        const std::shared_ptr<Inflight> &inf,
                        std::string reply);
    std::string healthLine(std::uint64_t id);
    std::string metricsLine(std::uint64_t id);
    void markDead(const std::shared_ptr<Conn> &c, bool slowOrGone);
    void finalizeConn(const std::shared_ptr<Conn> &c);
    bool blockingReply(const std::shared_ptr<Conn> &c,
                       std::string line);
    void pushReserved(const std::shared_ptr<Conn> &c, std::string line);
    void threadExit();

    ServeOptions opts_;
    ServeStats stats_;
    std::size_t queueCap_ = 0;

    // Registry-backed per-stage latency instruments (see the metric
    // catalog in README): wait-free observes at request granularity.
    obs::Histogram &queueWaitUs_;
    obs::Histogram &simTimeUs_;
    obs::Histogram &replyFlushUs_;
    obs::Counter &jobsCompletedCtr_;

    int listenFd_ = -1;
    int boundTcpPort_ = -1;
    int wakePipe_[2] = {-1, -1}; ///< nudges the acceptor on drain

    std::atomic<bool> draining_{false};
    std::chrono::steady_clock::time_point drainHardDeadline_{};

    std::atomic<std::size_t> admitted_{0}; ///< vs queueCap_

    std::mutex connsMu_;
    std::map<std::uint64_t, std::shared_ptr<Conn>> conns_;
    std::uint64_t nextConnId_ = 0;

    std::mutex inflightMu_;
    std::vector<std::weak_ptr<Inflight>> inflight_; ///< reaper scan list

    /// Detached reader threads alive; waitDrained() blocks on zero.
    std::mutex threadMu_;
    std::condition_variable threadCv_;
    std::size_t liveThreads_ = 0;

    std::thread acceptThread_;
    std::thread reaperThread_;
    std::mutex reaperMu_;
    std::condition_variable reaperCv_;
    bool reaperStop_ = false;

    bool started_ = false;
    bool drained_ = false;

    // --isolate execution path; null when running in-process.
    std::unique_ptr<dist::WorkerLauncher> workerLauncher_;
    std::unique_ptr<WorkerFleet> fleet_;

    // Declared last: destroyed first, so in-flight jobs (which touch
    // stats_/admitted_/conns) finish while the rest is still alive.
    RunPool pool_;
};

} // namespace serve
} // namespace stsim

#endif // STSIM_SERVE_SERVER_HH
