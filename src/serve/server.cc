#include "server.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "core/cancel.hh"
#include "core/job_serde.hh"
#include "core/simulator.hh"
#include "obs/trace.hh"
#include "serve/net.hh"
#include "trace/profile.hh"

namespace stsim
{
namespace serve
{

namespace
{

/** Why a CancelToken fired; first canceller wins (CAS from kNone). */
enum CancelReason : int
{
    kNone = 0,
    kDeadline,
    kDisconnect,
    kDrain,
};

std::string
errorLine(const char *kind, std::uint64_t id, std::string_view detail)
{
    serde::FlatWriter w;
    w.str("error", kind);
    w.u64("id", id);
    if (!detail.empty())
        w.str("detail", detail);
    return w.finish();
}

/** Default --isolate runner: "stsim_runner" beside this executable. */
std::string
defaultRunnerPath()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n <= 0) {
        stsim_fatal("serve: cannot resolve /proc/self/exe (%s); "
                    "pass a runner path",
                    std::strerror(errno));
    }
    buf[n] = '\0';
    std::string p(buf);
    std::size_t slash = p.rfind('/');
    std::string dir =
        slash == std::string::npos ? "" : p.substr(0, slash + 1);
    return dir + "stsim_runner";
}

} // namespace

/** One admitted request, shared by conn, reaper, and its pool job. */
struct SimServer::Inflight
{
    std::uint64_t id = 0;
    SimJob job;
    std::shared_ptr<CancelToken> token;
    bool hasDeadline = false;
    std::chrono::steady_clock::time_point deadline{};
    std::atomic<bool> done{false};
    std::atomic<int> cancelReason{kNone};

    /** Admission instant, for the queue-wait histogram. */
    std::chrono::steady_clock::time_point admitTime{};
    /** Sink timestamp at admission when a trace was active then. */
    bool traced = false;
    std::uint64_t traceTs = 0;
};

namespace
{

std::uint64_t
elapsedUs(std::chrono::steady_clock::time_point since)
{
    auto d = std::chrono::steady_clock::now() - since;
    auto us =
        std::chrono::duration_cast<std::chrono::microseconds>(d).count();
    return us > 0 ? static_cast<std::uint64_t>(us) : 0;
}

} // namespace

/**
 * One client connection. Owned jointly (shared_ptr) by its reader
 * thread, its writer thread, and any in-flight pool jobs; the fd is
 * closed when the last owner lets go, so a raced shutdown() can never
 * hit a recycled descriptor.
 */
struct SimServer::Conn
{
    int fd = -1;
    std::uint64_t id = 0;

    std::mutex mu;
    std::condition_variable cvSpace; ///< reply-queue space appeared
    std::condition_variable cvData;  ///< reply queued / state change
    std::deque<std::string> outq;    ///< complete frames, '\n' included
    std::size_t reserved = 0;        ///< slots held by in-flight jobs
    bool writing = false;            ///< writer mid-send (off-lock)
    bool halfClosed = false;         ///< clean EOF from the client
    bool dead = false;               ///< torn down; drop everything
    std::vector<std::shared_ptr<Inflight>> inflight;

    std::thread writer; ///< joined by the reader thread on its way out

    ~Conn()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

SimServer::SimServer(ServeOptions opts)
    : opts_(std::move(opts)),
      queueWaitUs_(
          obs::Registry::instance().histogram("serve.queue_wait_us")),
      simTimeUs_(obs::Registry::instance().histogram("serve.sim_time_us")),
      replyFlushUs_(
          obs::Registry::instance().histogram("serve.reply_flush_us")),
      jobsCompletedCtr_(
          obs::Registry::instance().counter("serve.jobs_completed")),
      pool_(opts_.workers)
{
}

SimServer::~SimServer()
{
    if (started_ && !drained_) {
        beginDrain();
        waitDrained();
    }
    if (wakePipe_[0] >= 0)
        ::close(wakePipe_[0]);
    if (wakePipe_[1] >= 0)
        ::close(wakePipe_[1]);
    if (listenFd_ >= 0)
        ::close(listenFd_);
}

void
SimServer::start()
{
    // A zero cap deadlocks every connection (the reply-slot predicate
    // can never hold) or rejects every frame as oversize; fail loudly
    // instead. The CLI rejects these too; this covers embedders.
    if (!opts_.replyQueueCap || !opts_.maxLineBytes)
        stsim_fatal("serve: replyQueueCap and maxLineBytes must be "
                    "positive");
    if (!opts_.unixPath.empty())
        listenFd_ = listenUnix(opts_.unixPath);
    else if (opts_.tcpPort >= 0)
        listenFd_ = listenTcp(opts_.tcpPort, &boundTcpPort_);
    else
        stsim_fatal("serve: no listen address (need --unix or --tcp)");

    if (::pipe2(wakePipe_, O_CLOEXEC) < 0)
        stsim_fatal("serve: pipe: %s", std::strerror(errno));

    queueCap_ = opts_.queueCapacity
                    ? opts_.queueCapacity
                    : std::size_t{2} * pool_.workers() + 4;
    if (opts_.isolate) {
        std::string runner = opts_.runnerPath.empty()
                                 ? defaultRunnerPath()
                                 : opts_.runnerPath;
        workerLauncher_ =
            std::make_unique<dist::LocalWorkerLauncher>(runner);
        FleetOptions fo;
        fo.workers = pool_.workers();
        fo.jobAttempts = opts_.jobAttempts;
        fo.poisonThreshold = opts_.poisonThreshold;
        fo.respawnBaseMs = opts_.respawnBaseMs;
        fo.respawnCapMs = opts_.respawnCapMs;
        fleet_ = std::make_unique<WorkerFleet>(fo, *workerLauncher_);
        fleet_->start();
    } else {
        // Build every benchmark's program on the pool, in parallel,
        // while the listener comes up, rather than one at a time on
        // the first requests' critical path. A request whose program
        // is still building waits for that build (programFor is
        // single-flight); a failed build leaves no entry behind.
        for (const std::string &name : benchmarkNames()) {
            pool_.submit([name] {
                try {
                    Simulator::programFor(name);
                } catch (const std::exception &e) {
                    stsim_warn("serve: building program '%s' failed (%s); "
                               "its first request builds it",
                               name.c_str(), e.what());
                }
            });
        }
    }
    started_ = true;
    acceptThread_ = std::thread([this] { acceptLoop(); });
    reaperThread_ = std::thread([this] { reaperLoop(); });
}

void
SimServer::beginDrain()
{
    {
        std::lock_guard<std::mutex> lock(reaperMu_);
        if (draining_.load())
            return;
        drainHardDeadline_ =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(opts_.drainGraceMs);
        draining_.store(true);
    }
    // Nudge the acceptor out of poll().
    char b = 1;
    ssize_t n;
    do {
        n = ::write(wakePipe_[1], &b, 1);
    } while (n < 0 && errno == EINTR);
    reaperCv_.notify_all();
}

void
SimServer::waitDrained()
{
    if (!started_ || drained_)
        return;
    if (acceptThread_.joinable())
        acceptThread_.join();
    {
        std::unique_lock<std::mutex> lock(threadMu_);
        threadCv_.wait(lock, [&] { return liveThreads_ == 0; });
    }
    // Every conn is gone, so every job has pushed its reply; this just
    // lets the pool workers park. Jobs never throw (runJob catches),
    // so wait() cannot rethrow here.
    pool_.wait();
    // Same for the fleet: no job outlives its connection, so this is
    // pure worker retirement (EOF, then SIGKILL stragglers).
    if (fleet_)
        fleet_->stop();
    {
        std::lock_guard<std::mutex> lock(reaperMu_);
        reaperStop_ = true;
    }
    reaperCv_.notify_all();
    if (reaperThread_.joinable())
        reaperThread_.join();
    drained_ = true;
}

void
SimServer::threadExit()
{
    std::lock_guard<std::mutex> lock(threadMu_);
    --liveThreads_;
    threadCv_.notify_all();
}

void
SimServer::acceptLoop()
{
    for (;;) {
        struct pollfd fds[2] = {{listenFd_, POLLIN, 0},
                                {wakePipe_[0], POLLIN, 0}};
        int rc = ::poll(fds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            stsim_warn("serve: poll: %s", std::strerror(errno));
            break;
        }
        if (draining_.load())
            break;
        if (!(fds[0].revents & POLLIN))
            continue;
        int fd = ::accept4(listenFd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            if (draining_.load())
                break;
            stsim_warn("serve: accept: %s", std::strerror(errno));
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            continue;
        }

        std::shared_ptr<Conn> c;
        {
            std::lock_guard<std::mutex> lock(connsMu_);
            if (conns_.size() < opts_.maxConnections) {
                c = std::make_shared<Conn>();
                c->fd = fd;
                c->id = nextConnId_++;
                conns_.emplace(c->id, c);
            }
        }
        if (!c) {
            // Shed the connection itself, with a structured reason.
            stats_.rejectedConnections++;
            std::string line =
                errorLine("busy", 0, "connection limit reached") + "\n";
            sendAll(fd, line, nullptr);
            ::close(fd);
            continue;
        }
        stats_.connections++;
        c->writer = std::thread([this, c] { writerMain(c); });
        {
            std::lock_guard<std::mutex> lock(threadMu_);
            ++liveThreads_;
        }
        // Detached: the reader owns connection teardown (it joins the
        // writer) and reports its own exit through threadExit(), which
        // is the last touch of server state on that thread.
        std::thread([this, c] {
            readerMain(c);
            threadExit();
        }).detach();
    }
    ::close(listenFd_);
    listenFd_ = -1;
    if (!opts_.unixPath.empty())
        ::unlink(opts_.unixPath.c_str());
}

void
SimServer::reaperLoop()
{
    using clock = std::chrono::steady_clock;
    for (;;) {
        bool draining, hard, force;
        {
            std::unique_lock<std::mutex> lock(reaperMu_);
            reaperCv_.wait_for(lock, std::chrono::milliseconds(10));
            if (reaperStop_)
                return;
            auto t = clock::now();
            draining = draining_.load();
            hard = draining && t >= drainHardDeadline_;
            // hard cancels in-flight jobs, but their error replies are
            // still owed; force (one more grace period later) is the
            // backstop that severs clients who never drain them.
            force = draining &&
                    t >= drainHardDeadline_ +
                             std::chrono::milliseconds(opts_.drainGraceMs);
        }
        auto now = clock::now();

        // Fire expired deadlines (and, past the drain grace period,
        // everything); compact finished/expired entries as we go.
        {
            std::lock_guard<std::mutex> lock(inflightMu_);
            std::size_t w = 0;
            for (std::size_t i = 0; i < inflight_.size(); ++i) {
                std::shared_ptr<Inflight> inf = inflight_[i].lock();
                if (!inf || inf->done.load())
                    continue;
                if (inf->hasDeadline && now >= inf->deadline) {
                    int expect = kNone;
                    inf->cancelReason.compare_exchange_strong(expect,
                                                              kDeadline);
                    inf->token->cancel();
                    continue;
                }
                if (hard) {
                    int expect = kNone;
                    inf->cancelReason.compare_exchange_strong(expect,
                                                              kDrain);
                    inf->token->cancel();
                    continue;
                }
                // Guard the no-gap case: self-move-assignment would
                // empty the weak_ptr and orphan the entry's deadline.
                if (w != i)
                    inflight_[w] = std::move(inflight_[i]);
                ++w;
            }
            inflight_.resize(w);
        }

        if (!draining)
            continue;

        // Drain: close connections once they owe nothing (or, past the
        // force deadline, unconditionally). The shutdown wakes readers
        // blocked in read() and fails writers out of send(); normal
        // teardown does the rest.
        std::vector<std::shared_ptr<Conn>> snapshot;
        {
            std::lock_guard<std::mutex> lock(connsMu_);
            snapshot.reserve(conns_.size());
            for (auto &kv : conns_)
                snapshot.push_back(kv.second);
        }
        for (const std::shared_ptr<Conn> &c : snapshot) {
            std::lock_guard<std::mutex> lock(c->mu);
            bool quiescent = c->inflight.empty() && c->outq.empty() &&
                             c->reserved == 0 && !c->writing;
            if (force || quiescent) {
                ::shutdown(c->fd, SHUT_RDWR);
                c->cvData.notify_all();
                c->cvSpace.notify_all();
            }
        }
    }
}

void
SimServer::readerMain(const std::shared_ptr<Conn> &c)
{
    LineReader lr(c->fd, opts_.maxLineBytes);
    for (;;) {
        {
            std::lock_guard<std::mutex> lock(c->mu);
            if (c->dead)
                break;
        }
        std::string line;
        LineStatus st = lr.next(line);
        if (st == LineStatus::Line) {
            handleLine(c, line);
            continue;
        }
        if (st == LineStatus::Overflow) {
            stats_.oversize++;
            blockingReply(
                c, errorLine("oversize", 0,
                             "request frame exceeds the size cap"));
            continue;
        }
        if (st == LineStatus::Eof) {
            // EOF is ambiguous: a clean half-close (client sent
            // everything, still reading) looks exactly like a full
            // close at read()==0. Probe the write side: a fully gone
            // peer raises POLLERR/POLLHUP, and its jobs must be
            // cancelled, not finished into a void.
            struct pollfd p = {c->fd, POLLOUT, 0};
            bool peerGone = ::poll(&p, 1, 0) > 0 &&
                            (p.revents & (POLLERR | POLLHUP)) != 0;
            if (peerGone) {
                markDead(c, false);
                break;
            }
            // A torn final frame (no trailing newline) is still a
            // frame: answer it, then flush and close.
            if (!lr.leftover().empty())
                handleLine(c, lr.leftover());
            {
                std::lock_guard<std::mutex> lock(c->mu);
                c->halfClosed = true;
            }
            c->cvData.notify_all();
            break;
        }
        markDead(c, false);
        break;
    }
    if (c->writer.joinable())
        c->writer.join();
    finalizeConn(c);
}

void
SimServer::writerMain(const std::shared_ptr<Conn> &c)
{
    for (;;) {
        std::string line;
        {
            std::unique_lock<std::mutex> lock(c->mu);
            c->cvData.wait(lock, [&] {
                return c->dead || !c->outq.empty() ||
                       (c->halfClosed && c->reserved == 0);
            });
            if (c->dead)
                return;
            if (c->outq.empty())
                return; // half-closed and nothing owed: clean finish
            line = std::move(c->outq.front());
            c->outq.pop_front();
            // Visible to the reaper: a popped-but-unsent reply still
            // counts as owed, so a drain shutdown cannot race it.
            c->writing = true;
        }
        c->cvSpace.notify_all();
        std::string err;
        bool sent;
        {
            TRACE_SPAN("serve.reply_flush");
            auto flushStart = std::chrono::steady_clock::now();
            sent = sendAll(c->fd, line, &err);
            replyFlushUs_.observe(elapsedUs(flushStart));
        }
        {
            std::lock_guard<std::mutex> lock(c->mu);
            c->writing = false;
        }
        if (!sent) {
            markDead(c, true);
            return;
        }
    }
}

void
SimServer::handleLine(const std::shared_ptr<Conn> &c,
                      const std::string &line)
{
    std::string_view sv(line);
    if (!sv.empty() && sv.back() == '\r')
        sv.remove_suffix(1);
    if (sv.empty())
        return;

    serde::ServeRequest req;
    serde::ParseOutcome parsed;
    {
        TRACE_SPAN("serve.parse");
        parsed = serde::parseServeRequest(sv, req);
    }
    if (!parsed) {
        stats_.parseErrors++;
        blockingReply(c, errorLine("parse", 0, parsed.error));
        return;
    }
    if (req.ping) {
        serde::FlatWriter w;
        w.u64("pong", req.id);
        blockingReply(c, w.finish());
        return;
    }
    if (req.health) {
        blockingReply(c, healthLine(req.id));
        return;
    }
    if (req.metrics) {
        blockingReply(c, metricsLine(req.id));
        return;
    }
    stats_.requests++;

    if (draining_.load()) {
        blockingReply(c, errorLine("draining", req.id,
                                   "server is draining"));
        return;
    }
    if (opts_.maxJobInstructions &&
        (req.job.cfg.maxInstructions > opts_.maxJobInstructions ||
         req.job.cfg.warmupInstructions > opts_.maxJobInstructions)) {
        stats_.badRequests++;
        blockingReply(c, errorLine("too_large", req.id,
                                   "instruction count exceeds the "
                                   "per-job cap"));
        return;
    }

    // Admission: lock-free headcount against the bounded queue. Full
    // => shed the request right now; nothing about it is retained.
    std::size_t cur = admitted_.load(std::memory_order_relaxed);
    for (;;) {
        if (cur >= queueCap_) {
            stats_.busy++;
            blockingReply(c, errorLine("busy", req.id,
                                       "admission queue full"));
            return;
        }
        if (admitted_.compare_exchange_weak(cur, cur + 1))
            break;
    }

    auto inf = std::make_shared<Inflight>();
    inf->id = req.id;
    inf->job = std::move(req.job);
    inf->token = std::make_shared<CancelToken>();
    inf->admitTime = std::chrono::steady_clock::now();
    if (obs::TraceSink *sink = obs::TraceSink::current()) {
        inf->traced = true;
        inf->traceTs = sink->nowUs();
    }
    std::uint64_t dl =
        req.deadlineMs ? req.deadlineMs : opts_.defaultDeadlineMs;
    if (opts_.maxDeadlineMs)
        dl = dl ? std::min(dl, opts_.maxDeadlineMs)
                : opts_.maxDeadlineMs;
    // Saturate at ~10 years: now() + milliseconds(2^64-ish) overflows
    // the signed chrono rep (UB) and wraps the deadline into the past,
    // instantly cancelling the job as "deadline expired".
    constexpr std::uint64_t kDeadlineCeilingMs = 315'360'000'000;
    dl = std::min(dl, kDeadlineCeilingMs);
    if (dl) {
        inf->hasDeadline = true;
        inf->deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(dl);
    }

    // Reserve the reply slot *before* submitting: if this client reads
    // slowly, the wait lands here, on its own reader thread, so sim
    // workers can always hand a finished reply off without blocking.
    {
        std::unique_lock<std::mutex> lock(c->mu);
        c->cvSpace.wait(lock, [&] {
            return c->dead ||
                   c->outq.size() + c->reserved < opts_.replyQueueCap;
        });
        if (c->dead) {
            admitted_.fetch_sub(1);
            return;
        }
        c->reserved++;
        c->inflight.push_back(inf);
    }
    {
        std::lock_guard<std::mutex> lock(inflightMu_);
        inflight_.push_back(inf);
    }
    if (fleet_) {
        fleet_->submit(inf->id, inf->job, inf->token,
                       [this, c, inf](FleetResult res) {
                           fleetDone(c, inf, std::move(res));
                       });
    } else {
        pool_.submit([this, c, inf] { runJob(c, inf); });
    }
}

void
SimServer::runJob(const std::shared_ptr<Conn> &c,
                  const std::shared_ptr<Inflight> &inf)
{
    // The job just left the admission queue for a sim worker.
    queueWaitUs_.observe(elapsedUs(inf->admitTime));
    if (inf->traced) {
        if (obs::TraceSink *sink = obs::TraceSink::current()) {
            sink->record("serve.queue_wait", inf->traceTs,
                         sink->nowUs() - inf->traceTs);
        }
    }

    std::string reply;
    bool ok = false;
    bool cancelled = false;
    std::string detail;
    try {
        // Hostile configs can stsim_fatal() arbitrarily deep (config
        // validation, unknown benchmark/policy names); the capture
        // scope turns those into FatalErrors caught right here.
        FatalCaptureScope scope;
        if (inf->token->cancelled())
            throw JobCancelled();
        Simulator sim(inf->job.cfg);
        SimResults r;
        {
            TRACE_SPAN("serve.sim");
            auto simStart = std::chrono::steady_clock::now();
            r = sim.run(inf->token.get());
            simTimeUs_.observe(elapsedUs(simStart));
        }
        r.experiment = inf->job.experiment;
        reply = serde::resultRecordToJson(inf->id, r);
        ok = true;
    } catch (const JobCancelled &) {
        cancelled = true;
    } catch (const FatalError &e) {
        detail = e.what();
    } catch (const std::bad_alloc &) {
        detail = "out of memory instantiating job";
    } catch (const std::exception &e) {
        detail = std::string("internal: ") + e.what();
    }

    inf->done.store(true);
    if (cancelled) {
        reply = cancelledReply(*inf);
    } else if (!ok) {
        stats_.badRequests++;
        reply = errorLine("bad_request", inf->id, detail);
    } else {
        stats_.completed++;
        jobsCompletedCtr_.inc();
    }
    finishAdmitted(c, inf, std::move(reply));
}

/**
 * Fleet completion: the --isolate twin of runJob's reply. Runs on the
 * fleet supervisor thread (or the submitting reader when the fleet is
 * stopping); called exactly once per admitted job.
 */
void
SimServer::fleetDone(const std::shared_ptr<Conn> &c,
                     const std::shared_ptr<Inflight> &inf,
                     FleetResult res)
{
    inf->done.store(true);
    std::string reply;
    switch (res.outcome) {
    case FleetOutcome::kReply:
        // The worker's line forwarded verbatim: a result record
        // (byte-identical to `dump` by construction) or its own
        // bad_request error record with the id already spliced in.
        reply = std::move(res.line);
        if (reply.rfind("{\"error\":", 0) == 0) {
            stats_.badRequests++;
        } else {
            stats_.completed++;
            jobsCompletedCtr_.inc();
        }
        break;
    case FleetOutcome::kCancelled:
        reply = cancelledReply(*inf);
        break;
    case FleetOutcome::kInternal:
        stats_.internalErrors++;
        reply = errorLine("internal", inf->id, res.detail);
        break;
    case FleetOutcome::kPoison:
        stats_.poisonRejected++;
        reply = errorLine("poison", inf->id, res.detail);
        break;
    }

    // Fleet jobs run out of process, so queue wait and sim time are
    // not separable here; the whole-lifetime histogram and span still
    // apply (admission -> fleet completion).
    queueWaitUs_.observe(elapsedUs(inf->admitTime));
    finishAdmitted(c, inf, std::move(reply));
}

/** The reply to an admitted job cancelled before it finished, by the
 *  reason its token fired for. */
std::string
SimServer::cancelledReply(const Inflight &inf)
{
    const int reason = inf.cancelReason.load();
    if (reason == kDeadline) {
        stats_.deadlineCancelled++;
        return errorLine("deadline", inf.id,
                         "deadline expired before completion");
    }
    if (reason == kDrain) {
        stats_.drainCancelled++;
        return errorLine("cancelled", inf.id,
                         "server drained before completion");
    }
    return errorLine("cancelled", inf.id, "cancelled before completion");
}

/**
 * The one tail of every admitted job, in-process or fleet: forget it
 * on its connection, release its admission slot, close its span and
 * hand @p reply to the connection's writer.
 */
void
SimServer::finishAdmitted(const std::shared_ptr<Conn> &c,
                          const std::shared_ptr<Inflight> &inf,
                          std::string reply)
{
    {
        std::lock_guard<std::mutex> lock(c->mu);
        auto &v = c->inflight;
        v.erase(std::remove(v.begin(), v.end(), inf), v.end());
    }
    admitted_.fetch_sub(1);
    // One cross-thread span covering the whole admitted lifetime
    // (admission -> reply handed to the writer).
    if (inf->traced) {
        if (obs::TraceSink *sink = obs::TraceSink::current()) {
            sink->record("serve.request", inf->traceTs,
                         sink->nowUs() - inf->traceTs);
        }
    }
    pushReserved(c, std::move(reply));
}

/**
 * {"op":"health"} reply: every ServeStats counter, plus the fleet's
 * per-worker state under --isolate. Hand-composed (fixed keys,
 * unsigned values, fixed state tokens), so no escaping is needed.
 */
std::string
SimServer::healthLine(std::uint64_t id)
{
    std::string out = "{\"health\":" + std::to_string(id);
    out += ",\"stats\":{";
    bool first = true;
    auto u64 = [&out, &first](const char *k, std::uint64_t v) {
        if (!first)
            out += ',';
        first = false;
        out += '"';
        out += k;
        out += "\":";
        out += std::to_string(v);
    };
    u64("connections", stats_.connections.load());
    u64("rejected_connections", stats_.rejectedConnections.load());
    u64("requests", stats_.requests.load());
    u64("completed", stats_.completed.load());
    u64("busy", stats_.busy.load());
    u64("parse_errors", stats_.parseErrors.load());
    u64("oversize", stats_.oversize.load());
    u64("bad_requests", stats_.badRequests.load());
    u64("deadline_cancelled", stats_.deadlineCancelled.load());
    u64("disconnect_cancelled", stats_.disconnectCancelled.load());
    u64("drain_cancelled", stats_.drainCancelled.load());
    u64("internal_errors", stats_.internalErrors.load());
    u64("poison_rejected", stats_.poisonRejected.load());
    out += "},\"isolate\":";
    out += fleet_ ? "true" : "false";
    if (fleet_) {
        FleetSnapshot snap = fleet_->snapshot();
        out += ",\"fleet\":{";
        first = true;
        u64("workers", snap.workers.size());
        u64("restarts_total", snap.restartsTotal);
        u64("quarantined", snap.quarantined);
        u64("poison_rejected", snap.poisonRejected);
        out += ",\"worker\":[";
        for (std::size_t i = 0; i < snap.workers.size(); ++i) {
            const FleetWorkerInfo &w = snap.workers[i];
            if (i)
                out += ',';
            out += '{';
            first = true;
            u64("slot", w.slot);
            u64("pid", w.pid > 0
                           ? static_cast<std::uint64_t>(w.pid)
                           : 0);
            out += ",\"state\":\"";
            out += w.state;
            out += '"';
            u64("jobs", w.jobs);
            u64("restarts", w.restarts);
            u64("backoff_stage", w.backoffStage);
            out += '}';
        }
        out += "]}";
    }
    out += '}';
    return out;
}

/**
 * {"op":"metrics"} reply: the whole metrics registry as one flat
 * record behind a leading "metrics":id echo. Flat on purpose --
 * clients reuse serde::parseFlat and the obs::Histogram bucket
 * helpers instead of needing a JSON DOM.
 */
std::string
SimServer::metricsLine(std::uint64_t id)
{
    std::string out = "{\"metrics\":" + std::to_string(id);
    bool first = false;
    obs::Registry::instance().appendFlatFields(out, first);
    out += '}';
    return out;
}

void
SimServer::markDead(const std::shared_ptr<Conn> &c, bool writerSide)
{
    std::vector<std::shared_ptr<Inflight>> toCancel;
    {
        std::lock_guard<std::mutex> lock(c->mu);
        if (c->dead)
            return;
        c->dead = true;
        c->outq.clear();
        toCancel = c->inflight;
        // Wake the peer thread out of read()/send().
        ::shutdown(c->fd, SHUT_RDWR);
    }
    c->cvData.notify_all();
    c->cvSpace.notify_all();
    (void)writerSide;
    for (const std::shared_ptr<Inflight> &inf : toCancel) {
        if (!inf->done.load()) {
            int expect = kNone;
            inf->cancelReason.compare_exchange_strong(expect,
                                                      kDisconnect);
            inf->token->cancel();
            stats_.disconnectCancelled++;
        }
    }
}

void
SimServer::finalizeConn(const std::shared_ptr<Conn> &c)
{
    std::lock_guard<std::mutex> lock(connsMu_);
    conns_.erase(c->id);
}

bool
SimServer::blockingReply(const std::shared_ptr<Conn> &c,
                         std::string line)
{
    line.push_back('\n');
    {
        std::unique_lock<std::mutex> lock(c->mu);
        c->cvSpace.wait(lock, [&] {
            return c->dead ||
                   c->outq.size() + c->reserved < opts_.replyQueueCap;
        });
        if (c->dead)
            return false;
        c->outq.push_back(std::move(line));
    }
    c->cvData.notify_all();
    return true;
}

void
SimServer::pushReserved(const std::shared_ptr<Conn> &c,
                        std::string line)
{
    line.push_back('\n');
    {
        std::lock_guard<std::mutex> lock(c->mu);
        c->reserved--;
        if (!c->dead)
            c->outq.push_back(std::move(line));
    }
    c->cvData.notify_all();
    c->cvSpace.notify_all();
}

} // namespace serve
} // namespace stsim
