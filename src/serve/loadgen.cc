/**
 * @file
 * stsim_loadgen: synthetic client for stsim_serve. One binary, five
 * modes, all speaking the JSONL wire protocol:
 *
 *   ping    retry-connect + ping until the server answers (startup
 *           wait for scripts)
 *   replay  send every manifest job exactly once (id = manifest
 *           index, bounded pipeline, busy retried), assert exactly
 *           one terminal reply per id, write the served result lines
 *           sorted by index -- byte-comparable with `stsim_runner
 *           dump` output for the same manifest. With --retry N,
 *           `busy` AND `internal` replies are retried up to N times
 *           per job with exponential backoff (without it, busy
 *           retries forever and internal is fatal) -- the client-side
 *           mirror of the server's supervised-worker retry loop.
 *   oneshot send one manifest job, print the reply line on stdout --
 *           for scripted probes (e.g. steering a poison job at an
 *           isolated server and asserting the structured error)
 *   health  send {"op":"health"}, print the reply line on stdout
 *   abuse   hostile-input drill: garbage frames, missing keys,
 *           unknown benchmark, truncated frame, oversize frame,
 *           expired deadline -- each must earn a structured error,
 *           and a valid job afterwards must still be served
 *   slow    admit jobs, then read the replies one byte at a time --
 *           a deliberately slow reader to park against the server's
 *           per-connection backpressure
 *   bench   N closed-loop clients for a fixed duration; reports
 *           sustained jobs/sec and p50/p90/p99 latency, optionally
 *           into a BENCH_serve.json-style file
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/arg_parse.hh"
#include "common/logging.hh"
#include "core/job_serde.hh"
#include "obs/metrics.hh"
#include "serve/net.hh"

using namespace stsim;
using namespace stsim::serve;

namespace
{

struct Options
{
    std::string mode;
    std::string unixPath;
    int tcpPort = -1;
    std::string manifest;
    std::string outPath;
    std::string jsonPath;
    unsigned clients = 4;
    double durationSec = 5.0;
    std::uint64_t deadlineMs = 0;
    std::size_t window = 8;
    std::size_t count = 8;
    unsigned delayMs = 50;
    int tries = 100;
    bool tolerateDisconnect = false;
    /// bounded busy/internal retry attempts per job; -1 = legacy
    /// behavior (busy retried forever, internal fatal)
    int retryMax = -1;
    std::size_t index = 0;
    std::uint64_t id = 1;
    std::string label = "stsim_serve_loadgen";
};

/** Retry backoff for attempt k (1-based): 2ms doubling, 250ms cap. */
std::chrono::milliseconds
retryBackoff(unsigned attempt)
{
    std::uint64_t ms = attempt >= 8 ? 250 : (2ull << attempt);
    if (ms > 250)
        ms = 250;
    return std::chrono::milliseconds(ms);
}

int
usage(FILE *to)
{
    std::fprintf(to,
"usage: stsim_loadgen MODE (--unix PATH | --tcp PORT) [options]\n"
"\n"
"modes: ping | replay | abuse | slow | bench | oneshot | health\n"
"  ping    --tries N (default 100, 100ms apart)\n"
"  replay  --manifest FILE --out FILE [--window N] [--retry N]\n"
"  abuse   --manifest FILE\n"
"  slow    --manifest FILE [--count N] [--delay-ms D]\n"
"  bench   --manifest FILE [--clients N] [--duration-sec S]\n"
"          [--deadline-ms D] [--json FILE] [--label NAME]\n"
"          [--retry N] [--tolerate-disconnect]\n"
"  oneshot --manifest FILE [--index I] [--id N] [--deadline-ms D]\n"
"          (prints the reply line on stdout)\n"
"  health  [--id N] (prints the health reply line on stdout)\n"
"\n"
"  --retry N  retry busy/internal replies up to N times per job with\n"
"             exponential backoff; without it busy retries forever\n"
"             and internal is fatal (replay) or tallied (bench)\n");
    return to == stdout ? 0 : 2;
}

std::uint64_t
parseU64(const char *flag, const char *s)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (!end || *end != '\0' || s[0] == '\0' || s[0] == '-')
        stsim_fatal("loadgen: bad value for %s: '%s'", flag, s);
    return v;
}

int
connectTarget(const Options &opts, std::string *err)
{
    if (!opts.unixPath.empty())
        return connectUnix(opts.unixPath, err);
    return connectTcp(opts.tcpPort, err);
}

void
setRecvTimeout(int fd, int sec)
{
    struct timeval tv;
    tv.tv_sec = sec;
    tv.tv_usec = 0;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

std::vector<std::string>
loadManifest(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open())
        stsim_fatal("loadgen: cannot read '%s': %s", path.c_str(),
                    std::strerror(errno));
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty())
            lines.push_back(line);
    }
    if (lines.empty())
        stsim_fatal("loadgen: manifest '%s' is empty", path.c_str());
    return lines;
}

/**
 * Build a request frame from a manifest line by splicing the id (and
 * optional deadline) into the object -- the cfg bytes pass through
 * untouched, so the server parses exactly what `stsim_runner run`
 * would have parsed.
 */
std::string
frameFor(const std::string &manifestLine, std::uint64_t id,
         std::uint64_t deadlineMs)
{
    if (manifestLine.empty() || manifestLine[0] != '{')
        stsim_fatal("loadgen: manifest line is not a JSON object");
    std::string f = "{\"id\":" + std::to_string(id);
    if (deadlineMs)
        f += ",\"deadlineMs\":" + std::to_string(deadlineMs);
    f += ",";
    f.append(manifestLine, 1, manifestLine.size() - 1);
    f.push_back('\n');
    return f;
}

enum class ReplyKind
{
    Result,
    Pong,
    Error,
    Malformed,
};

struct Reply
{
    ReplyKind kind = ReplyKind::Malformed;
    std::uint64_t id = 0;
    std::string errorKind;
    std::string detail;
};

Reply
classify(const std::string &line)
{
    Reply r;
    if (line.rfind("{\"index\":", 0) == 0) {
        r.kind = ReplyKind::Result;
        r.id = serde::resultRecordIndex(line);
        return r;
    }
    std::vector<serde::FlatField> fields;
    if (!serde::parseFlat(line, fields))
        return r;
    for (const serde::FlatField &f : fields) {
        if (f.key == "pong") {
            r.kind = ReplyKind::Pong;
            r.id = std::strtoull(f.value.c_str(), nullptr, 10);
        } else if (f.key == "error") {
            r.kind = ReplyKind::Error;
            r.errorKind = f.value;
        } else if (f.key == "id") {
            r.id = std::strtoull(f.value.c_str(), nullptr, 10);
        } else if (f.key == "detail") {
            r.detail = f.value;
        }
    }
    return r;
}

/**
 * Fetch the server's {"op":"metrics"} snapshot on its own connection
 * and return the parsed flat fields; empty on any failure (bench
 * treats server-side metrics as best-effort garnish, never a reason
 * to fail a load test).
 */
std::vector<serde::FlatField>
fetchMetrics(const Options &opts)
{
    std::vector<serde::FlatField> fields;
    std::string err;
    int fd = connectTarget(opts, &err);
    if (fd < 0)
        return fields;
    setRecvTimeout(fd, 120);
    LineReader lr(fd, 1 << 22);
    std::string line;
    if (sendAll(fd, "{\"op\":\"metrics\",\"id\":0}\n", nullptr) &&
        lr.next(line) == LineStatus::Line) {
        if (!serde::parseFlat(line, fields))
            fields.clear();
    }
    ::close(fd);
    return fields;
}

/** Quantiles of one server histogram over the bench window. */
struct ServerHist
{
    bool ok = false;
    std::uint64_t count = 0;
    std::uint64_t p50 = 0, p90 = 0, p99 = 0;
};

/**
 * The window-scoped view of a server histogram: subtract the
 * before-run bucket counts from the after-run ones, then quantile
 * over just the delta. A missing before-snapshot field means the
 * histogram did not exist yet (zero counts); a missing after-field
 * means no metrics support, and the row is reported absent.
 */
ServerHist
histWindow(const std::vector<serde::FlatField> &before,
           const std::vector<serde::FlatField> &after,
           const std::string &name)
{
    ServerHist h;
    const std::string key = "h." + name + ".buckets";
    std::string a, b;
    if (!serde::flatGet(after, key, a))
        return h;
    std::array<std::uint64_t, obs::Histogram::kBuckets> ab{}, bb{};
    if (!obs::Histogram::parseSparse(a, ab))
        return h;
    if (serde::flatGet(before, key, b) &&
        !obs::Histogram::parseSparse(b, bb))
        return h;
    for (int i = 0; i < obs::Histogram::kBuckets; ++i) {
        if (ab[i] < bb[i])
            return h; // counts went backwards: not the same server
        ab[i] -= bb[i];
        h.count += ab[i];
    }
    h.ok = true;
    h.p50 = obs::Histogram::quantileFromCounts(ab, 0.50);
    h.p90 = obs::Histogram::quantileFromCounts(ab, 0.90);
    h.p99 = obs::Histogram::quantileFromCounts(ab, 0.99);
    return h;
}

int
pingMode(const Options &opts)
{
    for (int attempt = 0; attempt < opts.tries; ++attempt) {
        std::string err;
        int fd = connectTarget(opts, &err);
        if (fd >= 0) {
            setRecvTimeout(fd, 10);
            LineReader lr(fd, 1 << 16);
            std::string line;
            if (sendAll(fd, "{\"op\":\"ping\",\"id\":1}\n", nullptr) &&
                lr.next(line) == LineStatus::Line &&
                classify(line).kind == ReplyKind::Pong) {
                ::close(fd);
                return 0;
            }
            ::close(fd);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::fprintf(stderr, "loadgen: ping: server never answered\n");
    return 1;
}

int
replayMode(const Options &opts)
{
    if (opts.manifest.empty() || opts.outPath.empty())
        stsim_fatal("loadgen: replay needs --manifest and --out");
    std::vector<std::string> jobs = loadManifest(opts.manifest);
    const std::size_t n = jobs.size();

    std::string err;
    int fd = connectTarget(opts, &err);
    if (fd < 0)
        stsim_fatal("loadgen: %s", err.c_str());
    setRecvTimeout(fd, 120);
    LineReader lr(fd, 1 << 22);

    std::vector<std::string> results(n);
    std::vector<int> replies(n, 0);
    std::vector<unsigned> attempts(n, 0);
    std::deque<std::size_t> retry;
    std::size_t sent = 0, done = 0, outstanding = 0;
    std::uint64_t retries = 0;

    while (done < n) {
        while (outstanding < opts.window &&
               (sent < n || !retry.empty())) {
            std::size_t idx;
            if (!retry.empty()) {
                idx = retry.front();
                retry.pop_front();
            } else {
                idx = sent++;
            }
            if (!sendAll(fd, frameFor(jobs[idx], idx, opts.deadlineMs),
                         &err)) {
                stsim_fatal("loadgen: replay: %s", err.c_str());
            }
            ++outstanding;
        }
        std::string line;
        LineStatus st = lr.next(line);
        if (st != LineStatus::Line)
            stsim_fatal("loadgen: replay: connection lost with %zu/%zu "
                        "replies outstanding", n - done, n);
        Reply r = classify(line);
        switch (r.kind) {
          case ReplyKind::Result:
            if (r.id >= n)
                stsim_fatal("loadgen: replay: result for unknown id "
                            "%llu",
                            static_cast<unsigned long long>(r.id));
            if (++replies[r.id] != 1)
                stsim_fatal("loadgen: replay: duplicate reply for id "
                            "%llu",
                            static_cast<unsigned long long>(r.id));
            results[r.id] = line;
            ++done;
            --outstanding;
            break;
          case ReplyKind::Error:
            if (r.id >= n)
                stsim_fatal("loadgen: replay: error for unknown id "
                            "%llu: %s",
                            static_cast<unsigned long long>(r.id),
                            line.c_str());
            if (r.errorKind == "busy" ||
                (opts.retryMax >= 0 && r.errorKind == "internal")) {
                ++retries;
                --outstanding;
                if (opts.retryMax >= 0) {
                    if (++attempts[r.id] >
                        static_cast<unsigned>(opts.retryMax)) {
                        stsim_fatal(
                            "loadgen: replay: id %llu still %s after "
                            "%d retries (%s)",
                            static_cast<unsigned long long>(r.id),
                            r.errorKind.c_str(), opts.retryMax,
                            r.detail.c_str());
                    }
                    std::this_thread::sleep_for(
                        retryBackoff(attempts[r.id]));
                } else {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(2));
                }
                retry.push_back(r.id);
                break;
            }
            stsim_fatal("loadgen: replay: id %llu failed: %s (%s)",
                        static_cast<unsigned long long>(r.id),
                        r.errorKind.c_str(), r.detail.c_str());
          case ReplyKind::Pong:
            break;
          case ReplyKind::Malformed:
            stsim_fatal("loadgen: replay: malformed reply: %s",
                        line.c_str());
        }
    }
    ::close(fd);

    std::ofstream out(opts.outPath, std::ios::binary);
    if (!out.is_open())
        stsim_fatal("loadgen: cannot open '%s' for writing: %s",
                    opts.outPath.c_str(), std::strerror(errno));
    for (const std::string &line : results)
        out << line << "\n";
    out.flush();
    if (!out)
        stsim_fatal("loadgen: write to '%s' failed",
                    opts.outPath.c_str());
    std::fprintf(stderr,
                 "loadgen: replay: %zu jobs served, %llu "
                 "retries, every id answered exactly once\n",
                 n, static_cast<unsigned long long>(retries));
    return 0;
}

/**
 * Send one frame, print the first reply line on stdout. Shared by the
 * oneshot and health modes: scripts pipe the line into grep/python to
 * assert on structured errors or supervision counters.
 */
int
probeMode(const Options &opts, const std::string &frame)
{
    std::string err;
    int fd = connectTarget(opts, &err);
    if (fd < 0)
        stsim_fatal("loadgen: %s", err.c_str());
    setRecvTimeout(fd, 120);
    if (!sendAll(fd, frame, &err))
        stsim_fatal("loadgen: probe: %s", err.c_str());
    LineReader lr(fd, 1 << 22);
    std::string line;
    if (lr.next(line) != LineStatus::Line) {
        ::close(fd);
        std::fprintf(stderr, "loadgen: probe: no reply before EOF\n");
        return 1;
    }
    ::close(fd);
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return 0;
}

int
oneshotMode(const Options &opts)
{
    if (opts.manifest.empty())
        stsim_fatal("loadgen: oneshot needs --manifest");
    std::vector<std::string> jobs = loadManifest(opts.manifest);
    if (opts.index >= jobs.size())
        stsim_fatal("loadgen: oneshot: --index %zu out of range "
                    "(manifest has %zu jobs)",
                    opts.index, jobs.size());
    return probeMode(opts, frameFor(jobs[opts.index], opts.id,
                                    opts.deadlineMs));
}

int
healthMode(const Options &opts)
{
    return probeMode(opts, "{\"op\":\"health\",\"id\":" +
                               std::to_string(opts.id) + "}\n");
}

/** One abuse scenario: send bytes, expect a certain reply shape. */
bool
expectReply(const Options &opts, const std::string &what,
            const std::string &bytes, bool halfClose,
            ReplyKind wantKind, const std::string &wantError)
{
    std::string err;
    int fd = connectTarget(opts, &err);
    if (fd < 0)
        stsim_fatal("loadgen: %s", err.c_str());
    setRecvTimeout(fd, 120);
    if (!sendAll(fd, bytes, &err))
        stsim_fatal("loadgen: abuse(%s): %s", what.c_str(),
                    err.c_str());
    if (halfClose)
        ::shutdown(fd, SHUT_WR);
    LineReader lr(fd, 1 << 22);
    std::string line;
    bool ok = false;
    if (lr.next(line) == LineStatus::Line) {
        Reply r = classify(line);
        ok = r.kind == wantKind &&
             (wantError.empty() || r.errorKind == wantError);
        if (!ok) {
            std::fprintf(stderr,
                         "loadgen: abuse(%s): unexpected reply: %s\n",
                         what.c_str(), line.c_str());
        }
    } else {
        std::fprintf(stderr,
                     "loadgen: abuse(%s): no reply before EOF\n",
                     what.c_str());
    }
    ::close(fd);
    if (ok)
        std::fprintf(stderr, "loadgen: abuse(%s): ok\n", what.c_str());
    return ok;
}

int
abuseMode(const Options &opts)
{
    if (opts.manifest.empty())
        stsim_fatal("loadgen: abuse needs --manifest");
    std::vector<std::string> jobs = loadManifest(opts.manifest);
    bool ok = true;

    ok &= expectReply(opts, "garbage", "this is not json\n", false,
                      ReplyKind::Error, "parse");
    ok &= expectReply(opts, "missing-keys",
                      "{\"id\":7,\"experiment\":\"nope\"}\n", false,
                      ReplyKind::Error, "parse");

    // Unknown benchmark: the cfg parses, but Simulator construction
    // fatals inside findProfile -- must come back as bad_request, not
    // take the daemon down.
    SimJob bad = serde::jobFromJson(jobs[0]);
    bad.cfg.benchmark = "no_such_benchmark";
    ok &= expectReply(opts, "unknown-benchmark",
                      frameFor(serde::toJson(bad), 8, 0), false,
                      ReplyKind::Error, "bad_request");

    // Truncated frame: half a request, then half-close. The torn tail
    // must be answered as a parse error, then a clean EOF.
    std::string torn = frameFor(jobs[0], 9, 0).substr(0, 40);
    ok &= expectReply(opts, "truncated-frame", torn, true,
                      ReplyKind::Error, "parse");

    // Oversize frame: blow through the server's line cap.
    std::string big(std::size_t{1} << 21, 'a');
    big.push_back('\n');
    ok &= expectReply(opts, "oversize-frame", big, false,
                      ReplyKind::Error, "oversize");

    // Absurd instruction count: shed before a worker is ever tied up.
    SimJob huge = serde::jobFromJson(jobs[0]);
    huge.cfg.maxInstructions = 2'000'000'000'000ull;
    ok &= expectReply(opts, "too-large",
                      frameFor(serde::toJson(huge), 10, 0), false,
                      ReplyKind::Error, "too_large");

    // Expired deadline: a job far too big for a 30ms budget must come
    // back as a deadline error (cooperative cancellation mid-run).
    SimJob slow = serde::jobFromJson(jobs[0]);
    slow.cfg.maxInstructions = 50'000'000;
    ok &= expectReply(opts, "deadline",
                      frameFor(serde::toJson(slow), 11, 30), false,
                      ReplyKind::Error, "deadline");

    // And after all that hostility, a well-formed job must be served.
    ok &= expectReply(opts, "valid-after-abuse",
                      frameFor(jobs[0], 99, 0), false,
                      ReplyKind::Result, "");

    if (!ok) {
        std::fprintf(stderr, "loadgen: abuse: FAILED\n");
        return 1;
    }
    std::fprintf(stderr, "loadgen: abuse: all scenarios passed\n");
    return 0;
}

int
slowMode(const Options &opts)
{
    if (opts.manifest.empty())
        stsim_fatal("loadgen: slow needs --manifest");
    std::vector<std::string> jobs = loadManifest(opts.manifest);

    std::string err;
    int fd = connectTarget(opts, &err);
    if (fd < 0)
        stsim_fatal("loadgen: %s", err.c_str());
    for (std::size_t i = 0; i < opts.count; ++i) {
        if (!sendAll(fd, frameFor(jobs[i % jobs.size()], i, 0), &err))
            stsim_fatal("loadgen: slow: %s", err.c_str());
    }
    // Read a trickle of tiny chunks: from the server's side this
    // connection's reply buffer fills and stays full. Exit once every
    // reply arrived (or the server hung up).
    std::size_t newlines = 0;
    while (newlines < opts.count) {
        char chunk[64];
        ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        newlines += static_cast<std::size_t>(
            std::count(chunk, chunk + n, '\n'));
        std::this_thread::sleep_for(
            std::chrono::milliseconds(opts.delayMs));
    }
    ::close(fd);
    std::fprintf(stderr, "loadgen: slow: read %zu/%zu replies\n",
                 newlines, opts.count);
    return newlines == opts.count ? 0 : 1;
}

double
percentile(std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    double rank = p * static_cast<double>(sorted.size());
    std::size_t idx = static_cast<std::size_t>(std::ceil(rank));
    if (idx > 0)
        --idx;
    if (idx >= sorted.size())
        idx = sorted.size() - 1;
    return sorted[idx];
}

int
benchMode(const Options &opts)
{
    if (opts.manifest.empty())
        stsim_fatal("loadgen: bench needs --manifest");
    std::vector<std::string> jobs = loadManifest(opts.manifest);

    struct ClientTally
    {
        std::uint64_t ok = 0, busy = 0, errors = 0, retries = 0;
        std::uint64_t deadline = 0, internal = 0, poison = 0,
                      badRequest = 0, otherErrors = 0;
        std::vector<double> latMs;
        bool hardFailure = false;
        std::string failure;
    };
    std::vector<ClientTally> tallies(opts.clients);
    std::vector<std::thread> threads;
    using clock = std::chrono::steady_clock;
    // Server-side view of the same window: snapshot the metrics
    // registry before and after, then diff the histogram buckets.
    std::vector<serde::FlatField> metricsBefore = fetchMetrics(opts);
    auto start = clock::now();
    auto stopAt =
        start + std::chrono::duration<double>(opts.durationSec);

    for (unsigned ci = 0; ci < opts.clients; ++ci) {
        threads.emplace_back([&, ci] {
            ClientTally &t = tallies[ci];
            std::string err;
            int fd = connectTarget(opts, &err);
            if (fd < 0) {
                t.hardFailure = !opts.tolerateDisconnect;
                t.failure = err;
                return;
            }
            setRecvTimeout(fd, 120);
            LineReader lr(fd, 1 << 22);
            std::uint64_t seq = ci; // per-conn ids need not be global
            unsigned attempt = 0;  // busy/internal retries of this seq
            while (clock::now() < stopAt) {
                const std::string &job = jobs[seq % jobs.size()];
                auto t0 = clock::now();
                if (!sendAll(fd,
                             frameFor(job, seq, opts.deadlineMs),
                             &err)) {
                    t.hardFailure = !opts.tolerateDisconnect;
                    t.failure = err;
                    break;
                }
                std::string line;
                if (lr.next(line) != LineStatus::Line) {
                    t.hardFailure = !opts.tolerateDisconnect;
                    t.failure = "connection lost mid-reply";
                    break;
                }
                double ms = std::chrono::duration<double,
                                                  std::milli>(
                                clock::now() - t0)
                                .count();
                Reply r = classify(line);
                bool advance = true;
                if (r.kind == ReplyKind::Result) {
                    ++t.ok;
                    t.latMs.push_back(ms);
                } else if (r.kind == ReplyKind::Error &&
                           (r.errorKind == "busy" ||
                            r.errorKind == "internal")) {
                    if (r.errorKind == "busy")
                        ++t.busy;
                    else
                        ++t.errors, ++t.internal;
                    if (opts.retryMax >= 0 &&
                        attempt <
                            static_cast<unsigned>(opts.retryMax)) {
                        ++attempt;
                        ++t.retries;
                        advance = false;
                        std::this_thread::sleep_for(
                            retryBackoff(attempt));
                    } else if (r.errorKind == "busy") {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(1));
                    }
                } else if (r.kind == ReplyKind::Error) {
                    ++t.errors;
                    if (r.errorKind == "deadline")
                        ++t.deadline;
                    else if (r.errorKind == "poison")
                        ++t.poison;
                    else if (r.errorKind == "bad_request")
                        ++t.badRequest;
                    else
                        ++t.otherErrors;
                } else {
                    ++t.errors;
                    ++t.otherErrors;
                }
                if (advance) {
                    seq += opts.clients;
                    attempt = 0;
                }
            }
            ::close(fd);
        });
    }
    for (std::thread &th : threads)
        th.join();
    double elapsed =
        std::chrono::duration<double>(clock::now() - start).count();
    std::vector<serde::FlatField> metricsAfter = fetchMetrics(opts);
    ServerHist srvQueueWait =
        histWindow(metricsBefore, metricsAfter, "serve.queue_wait_us");
    ServerHist srvSimTime =
        histWindow(metricsBefore, metricsAfter, "serve.sim_time_us");

    std::uint64_t ok = 0, busy = 0, errors = 0, retries = 0;
    std::uint64_t deadline = 0, internal = 0, poison = 0,
                  badRequest = 0, other = 0;
    std::vector<double> lat;
    for (const ClientTally &t : tallies) {
        if (t.hardFailure)
            stsim_fatal("loadgen: bench client failed: %s",
                        t.failure.c_str());
        ok += t.ok;
        busy += t.busy;
        errors += t.errors;
        retries += t.retries;
        deadline += t.deadline;
        internal += t.internal;
        poison += t.poison;
        badRequest += t.badRequest;
        other += t.otherErrors;
        lat.insert(lat.end(), t.latMs.begin(), t.latMs.end());
    }
    std::sort(lat.begin(), lat.end());
    double jobsPerSec = elapsed > 0 ? static_cast<double>(ok) / elapsed
                                    : 0.0;
    double p50 = percentile(lat, 0.50);
    double p90 = percentile(lat, 0.90);
    double p99 = percentile(lat, 0.99);
    double worst = lat.empty() ? 0.0 : lat.back();

    std::fprintf(stderr,
                 "loadgen: bench: %u clients, %.2fs: %llu ok "
                 "(%.1f jobs/s), %llu busy, %llu errors, %llu "
                 "retries; latency ms "
                 "p50=%.2f p90=%.2f p99=%.2f max=%.2f\n",
                 opts.clients, elapsed,
                 static_cast<unsigned long long>(ok), jobsPerSec,
                 static_cast<unsigned long long>(busy),
                 static_cast<unsigned long long>(errors),
                 static_cast<unsigned long long>(retries), p50, p90,
                 p99, worst);
    if (srvQueueWait.ok || srvSimTime.ok) {
        std::fprintf(
            stderr,
            "loadgen: bench: server window: queue-wait us "
            "p50=%llu p90=%llu p99=%llu (n=%llu); sim us "
            "p50=%llu p90=%llu p99=%llu (n=%llu)\n",
            static_cast<unsigned long long>(srvQueueWait.p50),
            static_cast<unsigned long long>(srvQueueWait.p90),
            static_cast<unsigned long long>(srvQueueWait.p99),
            static_cast<unsigned long long>(srvQueueWait.count),
            static_cast<unsigned long long>(srvSimTime.p50),
            static_cast<unsigned long long>(srvSimTime.p90),
            static_cast<unsigned long long>(srvSimTime.p99),
            static_cast<unsigned long long>(srvSimTime.count));
    } else {
        std::fprintf(stderr,
                     "loadgen: bench: no server-side metrics window "
                     "(metrics op unanswered)\n");
    }

    if (!opts.jsonPath.empty()) {
        FILE *f = std::fopen(opts.jsonPath.c_str(), "w");
        if (!f)
            stsim_fatal("loadgen: cannot open '%s' for writing: %s",
                        opts.jsonPath.c_str(), std::strerror(errno));
        std::fprintf(
            f,
            "{\"name\":\"%s\",\"clients\":%u,"
            "\"duration_s\":%.3f,\"ok\":%llu,\"shed_busy\":%llu,"
            "\"errors\":%llu,\"retries\":%llu,"
            "\"error_kinds\":{\"deadline\":%llu,\"internal\":%llu,"
            "\"poison\":%llu,\"bad_request\":%llu,\"other\":%llu},"
            "\"jobs_per_sec\":%.2f,"
            "\"latency_ms\":{\"p50\":%.3f,\"p90\":%.3f,"
            "\"p99\":%.3f,\"max\":%.3f}",
            opts.label.c_str(), opts.clients, elapsed,
            static_cast<unsigned long long>(ok),
            static_cast<unsigned long long>(busy),
            static_cast<unsigned long long>(errors),
            static_cast<unsigned long long>(retries),
            static_cast<unsigned long long>(deadline),
            static_cast<unsigned long long>(internal),
            static_cast<unsigned long long>(poison),
            static_cast<unsigned long long>(badRequest),
            static_cast<unsigned long long>(other), jobsPerSec, p50,
            p90, p99, worst);
        // Server-side histograms over the same window, when the
        // daemon answered the metrics op (absent otherwise).
        auto emitHist = [f](const char *key, const ServerHist &h) {
            std::fprintf(
                f,
                ",\"%s\":{\"count\":%llu,\"p50_us\":%llu,"
                "\"p90_us\":%llu,\"p99_us\":%llu}",
                key, static_cast<unsigned long long>(h.count),
                static_cast<unsigned long long>(h.p50),
                static_cast<unsigned long long>(h.p90),
                static_cast<unsigned long long>(h.p99));
        };
        if (srvQueueWait.ok)
            emitHist("server_queue_wait_us", srvQueueWait);
        if (srvSimTime.ok)
            emitHist("server_sim_time_us", srvSimTime);
        std::fprintf(f, "}\n");
        if (std::fclose(f) != 0)
            stsim_fatal("loadgen: write to '%s' failed",
                        opts.jsonPath.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ::signal(SIGPIPE, SIG_IGN);
    if (argc < 2)
        return usage(stderr);

    Options opts;
    opts.mode = argv[1];
    if (opts.mode == "--help" || opts.mode == "-h" ||
        opts.mode == "help") {
        return usage(stdout);
    }
    args::Diag diag;
    diag.missingValue = [](const char *flag) {
        stsim_fatal("loadgen: %s needs a value", flag);
    };
    diag.unknown = [](const char *arg) {
        std::fprintf(stderr, "loadgen: unknown argument '%s'\n", arg);
        std::exit(usage(stderr));
    };
    diag.parseU64 = [](const char *flag, const char *v) {
        return parseU64(flag, v);
    };

    // The usage text is a per-mode synopsis, not an options table, so
    // every flag registers with empty help (nothing is generated).
    args::FlagSet fs(diag);
    fs.str("--unix", "PATH", &opts.unixPath)
        .flag("--tcp", "PORT",
              [&opts](const char *v) {
                  opts.tcpPort =
                      static_cast<int>(parseU64("--tcp", v));
              })
        .str("--manifest", "FILE", &opts.manifest)
        .str("--out", "FILE", &opts.outPath)
        .str("--json", "FILE", &opts.jsonPath)
        .u64("--clients", "N", &opts.clients)
        .dblAtof("--duration-sec", "S", &opts.durationSec)
        .u64("--deadline-ms", "D", &opts.deadlineMs)
        .u64("--window", "N", &opts.window)
        .u64("--count", "N", &opts.count)
        .u64("--delay-ms", "D", &opts.delayMs)
        .u64("--tries", "N", &opts.tries)
        .u64("--retry", "N", &opts.retryMax)
        .u64("--index", "I", &opts.index)
        .u64("--id", "N", &opts.id)
        .str("--label", "NAME", &opts.label)
        .boolean("--tolerate-disconnect", &opts.tolerateDisconnect);
    fs.parse(argc, argv, 2);
    if (opts.unixPath.empty() && opts.tcpPort < 0)
        return usage(stderr);

    if (opts.mode == "ping")
        return pingMode(opts);
    if (opts.mode == "replay")
        return replayMode(opts);
    if (opts.mode == "abuse")
        return abuseMode(opts);
    if (opts.mode == "slow")
        return slowMode(opts);
    if (opts.mode == "bench")
        return benchMode(opts);
    if (opts.mode == "oneshot")
        return oneshotMode(opts);
    if (opts.mode == "health")
        return healthMode(opts);
    std::fprintf(stderr, "loadgen: unknown mode '%s'\n",
                 opts.mode.c_str());
    return usage(stderr);
}
