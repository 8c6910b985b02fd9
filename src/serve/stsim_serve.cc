/**
 * @file
 * stsim_serve: long-lived simulation daemon. Listens on a Unix or
 * loopback-TCP socket, serves SimJob requests (JSONL frames, see
 * serve/server.hh for the wire protocol), and drains gracefully on
 * SIGTERM/SIGINT: stop accepting, finish or cancel in-flight work by
 * its deadline, exit 0.
 */

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include <signal.h>

#include "common/arg_parse.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/server.hh"

using namespace stsim;

namespace
{

/** Observability surfaces; CLI-only, not part of ServeOptions. */
struct ObsCli
{
    std::string traceFile;
    std::string metricsFile;
    std::uint64_t statsIntervalSec = 0;
};

int usage(FILE *to);

/**
 * The full flag surface, bound to @p opts. usage() registers against
 * throwaway targets just to generate the options block, so the help
 * text can never drift from the flags actually parsed.
 */
void
registerFlags(args::FlagSet &fs, serve::ServeOptions &opts,
              ObsCli &obsCli, bool &haveAddr)
{
    for (const char *h : {"--help", "-h", "help"})
        fs.boolean(h, [] { std::exit(usage(stdout)); });
    fs.flag("--unix", "PATH",
            [&opts, &haveAddr](const char *v) {
                opts.unixPath = v;
                haveAddr = true;
            },
            "listen on a Unix stream socket")
        .flag("--tcp", "PORT",
              [&fs, &opts, &haveAddr](const char *v) {
                  opts.tcpPort = static_cast<int>(fs.u64Value(
                      "--tcp", v, std::numeric_limits<std::uint16_t>::max()));
                  haveAddr = true;
              },
              "listen on 127.0.0.1:PORT (0 = ephemeral;\n"
              "the bound port is printed on stderr)")
        .u64("--jobs", "N", &opts.workers,
             "simulation worker threads (default: STSIM_JOBS\n"
             "or hardware concurrency)")
        .u64("--queue", "N", &opts.queueCapacity,
             "admission queue capacity: admitted but\n"
             "unfinished requests (default 2*jobs+4);\n"
             "overload => immediate {\"error\":\"busy\"}")
        .u64("--default-deadline-ms", "D", &opts.defaultDeadlineMs,
             "deadline for requests that carry none (0 =\n"
             "unlimited, the default)")
        .u64("--max-deadline-ms", "D", &opts.maxDeadlineMs,
             "clamp every request's deadline (0 = no clamp)")
        .u64("--drain-grace-ms", "D", &opts.drainGraceMs,
             "on SIGTERM, cancel whatever is still running\n"
             "this long after the drain starts (default\n"
             "10000)")
        // 0 would make every frame oversize; reject it up front.
        .u64Positive("--max-line-bytes", "B", &opts.maxLineBytes,
                     "request frame size cap (default 1048576)")
        // 0 makes the reply-slot predicate unsatisfiable and
        // deadlocks every connection; reject it up front.
        .u64Positive("--reply-buffer", "N", &opts.replyQueueCap,
                     "buffered replies per connection before the\n"
                     "reader blocks (default 64)")
        .u64("--max-conns", "N", &opts.maxConnections,
             "connection cap (default 256)")
        .u64("--max-insts", "N", &opts.maxJobInstructions,
             "per-job instruction cap, warmup and measured\n"
             "each (default 1000000000; 0 = unlimited)")
        .boolean("--isolate", &opts.isolate,
                 "run jobs in a supervised fleet of\n"
                 "out-of-process `stsim_runner serve-worker`\n"
                 "subprocesses: a crashing job becomes a\n"
                 "structured reply, never a daemon exit")
        .str("--runner", "PATH", &opts.runnerPath,
             "stsim_runner binary for --isolate (default:\n"
             "stsim_runner beside this executable)")
        .u64Positive("--job-attempts", "K", &opts.jobAttempts,
                     "worker deaths before a job is answered\n"
                     "{\"error\":\"internal\"} (default 3)")
        .u64Positive("--poison-threshold", "K", &opts.poisonThreshold,
                     "consecutive worker kills before a job is\n"
                     "quarantined as {\"error\":\"poison\"}\n"
                     "(default 2)")
        .u64("--respawn-base-ms", "D", &opts.respawnBaseMs,
             "worker respawn backoff base (default 50)")
        .u64("--respawn-cap-ms", "D", &opts.respawnCapMs,
             "worker respawn backoff cap (default 5000)")
        .str("--trace", "FILE", &obsCli.traceFile,
             "write a Chrome trace_event JSON span trace\n"
             "of the serving session to FILE on exit\n"
             "(load it in Perfetto or chrome://tracing)")
        .str("--metrics", "FILE", &obsCli.metricsFile,
             "write the final metrics-registry snapshot\n"
             "(one JSONL record) to FILE on exit")
        .u64("--stats-interval-sec", "N", &obsCli.statsIntervalSec,
             "print a one-line stats summary to stderr\n"
             "every N seconds (0 = off, the default)");
}

args::Diag
serveDiag()
{
    args::Diag d;
    d.missingValue = [](const char *flag) {
        stsim_fatal("serve: %s needs a value", flag);
    };
    d.unknown = [](const char *arg) {
        std::fprintf(stderr, "serve: unknown argument '%s'\n", arg);
        std::exit(usage(stderr));
    };
    d.badValue = [](const char *flag, const char *v) {
        stsim_fatal("serve: bad value for %s: '%s'", flag, v);
    };
    d.notPositive = [](const char *flag) {
        stsim_fatal("serve: %s must be positive", flag);
    };
    return d;
}

int
usage(FILE *to)
{
    serve::ServeOptions dummy;
    ObsCli dummyObs;
    bool dummyAddr = false;
    args::FlagSet fs(serveDiag());
    registerFlags(fs, dummy, dummyObs, dummyAddr);
    std::fprintf(to,
"usage: stsim_serve (--unix PATH | --tcp PORT) [options]\n"
"\n"
"Serve SimJob requests as JSONL frames; one JSON object per line each\n"
"way. See README 'Serving' for the wire format and error replies.\n"
"\n"
"options:\n"
"%s", fs.optionsText().c_str());
    return to == stdout ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    ::signal(SIGPIPE, SIG_IGN);

    serve::ServeOptions opts;
    ObsCli obsCli;
    bool haveAddr = false;
    args::FlagSet fs(serveDiag());
    registerFlags(fs, opts, obsCli, haveAddr);
    fs.parse(argc, argv, 1);
    if (!haveAddr)
        return usage(stderr);

    // Tracing is installed before the server exists so accept/parse
    // spans from the very first connection land in the file.
    std::unique_ptr<obs::TraceSink> traceSink;
    if (!obsCli.traceFile.empty()) {
        traceSink = std::make_unique<obs::TraceSink>();
        obs::TraceSink::install(traceSink.get());
    }

    // Block the shutdown signals in every thread (the server's threads
    // inherit this mask), then field them synchronously below.
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGTERM);
    sigaddset(&set, SIGINT);
    pthread_sigmask(SIG_BLOCK, &set, nullptr);

    serve::SimServer server(opts);
    server.start();
    if (!opts.unixPath.empty())
        stsim_inform("stsim_serve: listening on unix:%s",
                     opts.unixPath.c_str());
    else
        stsim_inform("stsim_serve: listening on 127.0.0.1:%d",
                     server.tcpPort());

    // Periodic one-line operator stats: the key ServeStats counters
    // plus live registry gauges/quantiles, on the leveled log channel.
    std::mutex statsMu;
    std::condition_variable statsCv;
    bool statsStop = false;
    std::thread statsThread;
    if (obsCli.statsIntervalSec) {
        statsThread = std::thread([&] {
            obs::Registry &reg = obs::Registry::instance();
            std::unique_lock<std::mutex> lock(statsMu);
            while (!statsCv.wait_for(
                lock, std::chrono::seconds(obsCli.statsIntervalSec),
                [&] { return statsStop; })) {
                const serve::ServeStats &s = server.stats();
                stsim_inform(
                    "stsim_serve: stats requests=%llu completed=%llu "
                    "busy=%llu queue-depth=%lld idle-workers=%lld "
                    "qwait-p99-us=%llu sim-p99-us=%llu",
                    static_cast<unsigned long long>(s.requests.load()),
                    static_cast<unsigned long long>(s.completed.load()),
                    static_cast<unsigned long long>(s.busy.load()),
                    static_cast<long long>(
                        reg.gauge("runpool.queue_depth").value()),
                    static_cast<long long>(
                        reg.gauge("runpool.idle_workers").value()),
                    static_cast<unsigned long long>(
                        reg.histogram("serve.queue_wait_us")
                            .quantile(0.99)),
                    static_cast<unsigned long long>(
                        reg.histogram("serve.sim_time_us")
                            .quantile(0.99)));
            }
        });
    }

    int sig = 0;
    sigwait(&set, &sig);
    stsim_inform("stsim_serve: %s received, draining "
                 "(grace %llu ms)...",
                 sig == SIGTERM ? "SIGTERM" : "SIGINT",
                 static_cast<unsigned long long>(opts.drainGraceMs));
    server.beginDrain();
    server.waitDrained();

    if (statsThread.joinable()) {
        {
            std::lock_guard<std::mutex> lock(statsMu);
            statsStop = true;
        }
        statsCv.notify_all();
        statsThread.join();
    }

    // Every worker/reader thread is parked or joined by now, so the
    // retract-flush-write sequence sees a complete, quiescent trace.
    if (traceSink) {
        obs::TraceSink::install(nullptr);
        if (!traceSink->writeFile(obsCli.traceFile)) {
            stsim_warn("stsim_serve: cannot write trace file %s: %s",
                       obsCli.traceFile.c_str(), std::strerror(errno));
        }
    }
    if (!obsCli.metricsFile.empty() &&
        !obs::Registry::instance().writeSnapshotFile(obsCli.metricsFile)) {
        stsim_warn("stsim_serve: cannot write metrics file %s: %s",
                   obsCli.metricsFile.c_str(), std::strerror(errno));
    }

    const serve::ServeStats &s = server.stats();
    stsim_inform(
        "stsim_serve: drained; conns=%llu (rejected %llu) "
        "requests=%llu completed=%llu busy=%llu parse=%llu "
        "oversize=%llu bad=%llu deadline=%llu disconnect=%llu "
        "drain-cancelled=%llu internal=%llu poison=%llu",
        static_cast<unsigned long long>(s.connections.load()),
        static_cast<unsigned long long>(s.rejectedConnections.load()),
        static_cast<unsigned long long>(s.requests.load()),
        static_cast<unsigned long long>(s.completed.load()),
        static_cast<unsigned long long>(s.busy.load()),
        static_cast<unsigned long long>(s.parseErrors.load()),
        static_cast<unsigned long long>(s.oversize.load()),
        static_cast<unsigned long long>(s.badRequests.load()),
        static_cast<unsigned long long>(s.deadlineCancelled.load()),
        static_cast<unsigned long long>(s.disconnectCancelled.load()),
        static_cast<unsigned long long>(s.drainCancelled.load()),
        static_cast<unsigned long long>(s.internalErrors.load()),
        static_cast<unsigned long long>(s.poisonRejected.load()));
    return 0;
}
