/**
 * @file
 * In-process SimServer tests: a real server on a Unix socket in a
 * temp dir, driven by raw client sockets through the serve/net.hh
 * helpers. Covers the protocol round-trip (served results must be
 * byte-identical to a direct Simulator run), structured error replies
 * for garbage/oversize/too-large frames, admission-queue load
 * shedding, deadline cancellation, graceful drain, and mid-job client
 * disconnect.
 *
 * The Isolated* tests run the same server with --isolate semantics:
 * real `stsim_runner serve-worker` subprocesses (path baked in via
 * STSIM_RUNNER_PATH), including workers that SIGSEGV mid-job through
 * the STSIM_TEST_CRASH_ON_JOB hook -- crash containment, supervised
 * respawn, and poison-job quarantine are asserted end to end.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/experiment.hh"
#include "core/job_serde.hh"
#include "dist/host_launcher.hh"
#include "core/parallel_harness.hh"
#include "core/results_sink.hh"
#include "core/simulator.hh"
#include "serve/net.hh"
#include "serve/server.hh"
#include "trace/profile.hh"

#include "run_jobs.hh"

using namespace stsim;

namespace
{

/** Self-deleting scratch directory for the Unix socket. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char tmpl[] = "/tmp/stsim_serve_test_XXXXXX";
        char *d = ::mkdtemp(tmpl);
        EXPECT_NE(d, nullptr);
        path = d ? d : "";
    }

    ~TempDir()
    {
        if (!path.empty()) {
            std::string cmd = "rm -rf '" + path + "'";
            int rc = std::system(cmd.c_str());
            (void)rc;
        }
    }

    std::string sock() const { return path + "/serve.sock"; }
};

SimJob
tinyJob(std::uint64_t insts = 8'000, std::uint64_t warmup = 2'000)
{
    SimJob j;
    j.cfg.maxInstructions = insts;
    j.cfg.warmupInstructions = warmup;
    j.cfg.benchmark = "go";
    Experiment::byName("baseline").applyTo(j.cfg);
    j.experiment = "baseline";
    return j;
}

/** A request frame: the manifest record plus id/deadline fields. */
std::string
requestFrame(const SimJob &j, std::uint64_t id,
             std::uint64_t deadlineMs = 0)
{
    std::string rec = serde::toJson(j); // {"experiment":...,"cfg":...}
    std::string out = "{\"id\":" + std::to_string(id) + ",";
    if (deadlineMs)
        out += "\"deadlineMs\":" + std::to_string(deadlineMs) + ",";
    out += rec.substr(1);
    out += '\n';
    return out;
}

/** Blocking line-framed client on the server's Unix socket. */
struct Client
{
    int fd = -1;
    serve::LineReader reader;

    explicit Client(const std::string &sockPath, std::size_t maxLine =
                                                     1 << 20)
        : reader(-1, maxLine)
    {
        std::string err;
        fd = serve::connectUnix(sockPath, &err);
        EXPECT_GE(fd, 0) << err;
        reader = serve::LineReader(fd, maxLine);
    }

    ~Client()
    {
        if (fd >= 0)
            ::close(fd);
    }

    void
    send(const std::string &frame)
    {
        std::string err;
        ASSERT_TRUE(serve::sendAll(fd, frame, &err)) << err;
    }

    /** Next reply line; fails the test on EOF/error. */
    std::string
    readLine()
    {
        std::string line;
        serve::LineStatus st = reader.next(line);
        EXPECT_EQ(st, serve::LineStatus::Line);
        return line;
    }

    /** Drain replies until orderly EOF. */
    std::vector<std::string>
    readUntilEof()
    {
        std::vector<std::string> lines;
        for (;;) {
            std::string line;
            serve::LineStatus st = reader.next(line);
            if (st == serve::LineStatus::Line) {
                lines.push_back(std::move(line));
                continue;
            }
            EXPECT_EQ(st, serve::LineStatus::Eof);
            break;
        }
        return lines;
    }
};

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

/** Scoped environment variable: set on entry, unset on exit. */
struct EnvGuard
{
    std::string key;

    EnvGuard(const char *k, const char *v) : key(k)
    {
        ::setenv(k, v, 1);
    }

    ~EnvGuard() { ::unsetenv(key.c_str()); }
};

/** ServeOptions routed through the out-of-process worker fleet. */
serve::ServeOptions
isolatedOptions(const TempDir &dir, unsigned workers)
{
    serve::ServeOptions opts;
    opts.unixPath = dir.sock();
    opts.workers = workers;
    opts.isolate = true;
    opts.runnerPath = STSIM_RUNNER_PATH;
    return opts;
}

} // namespace

TEST(Serve, PingPong)
{
    TempDir dir;
    serve::ServeOptions opts;
    opts.unixPath = dir.sock();
    opts.workers = 1;
    serve::SimServer server(opts);
    server.start();

    Client c(dir.sock());
    c.send("{\"op\":\"ping\",\"id\":41}\n");
    EXPECT_EQ(c.readLine(), "{\"pong\":41}");

    server.beginDrain();
    server.waitDrained();
}

TEST(Serve, ServedResultIsByteIdenticalToDirectRun)
{
    TempDir dir;
    serve::ServeOptions opts;
    opts.unixPath = dir.sock();
    opts.workers = 2;
    serve::SimServer server(opts);
    server.start();

    SimJob j = tinyJob();
    Client c(dir.sock());
    c.send(requestFrame(j, 7));
    std::string reply = c.readLine();

    SimResults direct = Simulator(j.cfg).run();
    direct.experiment = j.experiment;
    EXPECT_EQ(reply, serde::resultRecordToJson(7, direct));

    server.beginDrain();
    server.waitDrained();
    EXPECT_EQ(server.stats().completed.load(), 1u);
}

TEST(Serve, GarbageAndBadRequestsGetStructuredErrors)
{
    TempDir dir;
    serve::ServeOptions opts;
    opts.unixPath = dir.sock();
    opts.workers = 1;
    serve::SimServer server(opts);
    server.start();

    Client c(dir.sock());
    c.send("this is not json\n");
    EXPECT_TRUE(startsWith(c.readLine(), "{\"error\":\"parse\""));

    c.send("{\"op\":\"reboot\"}\n");
    EXPECT_TRUE(startsWith(c.readLine(), "{\"error\":\"parse\""));

    // Well-formed frame, hostile config: unknown benchmark names fatal
    // deep inside config validation; the server must answer, not die.
    SimJob j = tinyJob();
    std::string frame = requestFrame(j, 3);
    std::size_t at = frame.find("\"go\"");
    ASSERT_NE(at, std::string::npos);
    frame.replace(at, 4, "\"no_such_benchmark\"");
    c.send(frame);
    std::string reply = c.readLine();
    EXPECT_TRUE(startsWith(reply, "{\"error\":\"bad_request\"")) << reply;
    EXPECT_NE(reply.find("\"id\":3"), std::string::npos);

    // A custom profile is untrusted too: one that would build a
    // two-million-block program is refused before anything is built.
    SimJob huge = tinyJob();
    huge.cfg.customProfile = findProfile("go");
    huge.cfg.customProfile->numBlocks = 2'000'000;
    c.send(requestFrame(huge, 4));
    reply = c.readLine();
    EXPECT_TRUE(startsWith(reply, "{\"error\":\"bad_request\"")) << reply;
    EXPECT_NE(reply.find("numBlocks"), std::string::npos) << reply;
    EXPECT_NE(reply.find("\"id\":4"), std::string::npos);

    // A machine with no FP ALU would deadlock at its first FP op and
    // panic the daemon; config validation refuses it by name.
    SimJob noFp = tinyJob(200'000);
    noFp.cfg.core.numFpAlu = 0;
    c.send(requestFrame(noFp, 5));
    reply = c.readLine();
    EXPECT_TRUE(startsWith(reply, "{\"error\":\"bad_request\"")) << reply;
    EXPECT_NE(reply.find("numFpAlu"), std::string::npos) << reply;
    EXPECT_NE(reply.find("\"id\":5"), std::string::npos);

    // The connection survived all of the above.
    c.send("{\"op\":\"ping\",\"id\":1}\n");
    EXPECT_EQ(c.readLine(), "{\"pong\":1}");

    server.beginDrain();
    server.waitDrained();
    EXPECT_EQ(server.stats().parseErrors.load(), 2u);
    EXPECT_EQ(server.stats().badRequests.load(), 3u);
}

TEST(Serve, OversizeFrameIsDiscardedNotBuffered)
{
    TempDir dir;
    serve::ServeOptions opts;
    opts.unixPath = dir.sock();
    opts.workers = 1;
    opts.maxLineBytes = 256;
    serve::SimServer server(opts);
    server.start();

    Client c(dir.sock());
    std::string big(4096, 'a');
    big += '\n';
    c.send(big);
    EXPECT_TRUE(startsWith(c.readLine(), "{\"error\":\"oversize\""));

    // Framing stays intact after the discard.
    c.send("{\"op\":\"ping\",\"id\":2}\n");
    EXPECT_EQ(c.readLine(), "{\"pong\":2}");

    server.beginDrain();
    server.waitDrained();
    EXPECT_EQ(server.stats().oversize.load(), 1u);
}

TEST(Serve, TooLargeJobIsRejectedUpFront)
{
    TempDir dir;
    serve::ServeOptions opts;
    opts.unixPath = dir.sock();
    opts.workers = 1;
    opts.maxJobInstructions = 1'000;
    serve::SimServer server(opts);
    server.start();

    Client c(dir.sock());
    c.send(requestFrame(tinyJob(), 9)); // 8k insts > the 1k cap
    std::string reply = c.readLine();
    EXPECT_TRUE(startsWith(reply, "{\"error\":\"too_large\"")) << reply;

    server.beginDrain();
    server.waitDrained();
}

TEST(Serve, OverloadShedsWithBusyNotUnboundedMemory)
{
    TempDir dir;
    serve::ServeOptions opts;
    opts.unixPath = dir.sock();
    opts.workers = 1;
    opts.queueCapacity = 1;
    serve::SimServer server(opts);
    server.start();

    // First job occupies the single admission slot; the second must be
    // shed immediately with `busy` while the first still runs.
    Client c(dir.sock());
    c.send(requestFrame(tinyJob(2'000'000, 0), 1));
    c.send(requestFrame(tinyJob(), 2));

    std::string first = c.readLine();
    std::string second = c.readLine();
    // Replies may reorder: the busy shed is immediate, the result slow.
    EXPECT_TRUE(startsWith(first, "{\"error\":\"busy\"")) << first;
    EXPECT_TRUE(startsWith(second, "{\"index\":1,")) << second;

    server.beginDrain();
    server.waitDrained();
    EXPECT_EQ(server.stats().busy.load(), 1u);
    EXPECT_EQ(server.stats().completed.load(), 1u);
}

TEST(Serve, DeadlineCancelsLongJob)
{
    TempDir dir;
    serve::ServeOptions opts;
    opts.unixPath = dir.sock();
    opts.workers = 1;
    serve::SimServer server(opts);
    server.start();

    Client c(dir.sock());
    c.send(requestFrame(tinyJob(500'000'000, 0), 11, /*deadlineMs=*/40));
    std::string reply = c.readLine();
    EXPECT_TRUE(startsWith(reply, "{\"error\":\"deadline\"")) << reply;
    EXPECT_NE(reply.find("\"id\":11"), std::string::npos);

    server.beginDrain();
    server.waitDrained();
    EXPECT_EQ(server.stats().deadlineCancelled.load(), 1u);
}

TEST(Serve, AbsurdDeadlineIsSaturatedNotWrapped)
{
    // deadlineMs = 2^64-1: unsaturated, now() + milliseconds(dl)
    // overflows the signed chrono rep and wraps the deadline into the
    // past, instantly cancelling the job as "deadline expired". It
    // must behave like "no meaningful deadline" and just complete.
    TempDir dir;
    serve::ServeOptions opts;
    opts.unixPath = dir.sock();
    opts.workers = 1;
    serve::SimServer server(opts);
    server.start();

    Client c(dir.sock());
    c.send(requestFrame(tinyJob(), 21,
                        /*deadlineMs=*/UINT64_MAX));
    std::string reply = c.readLine();
    EXPECT_TRUE(startsWith(reply, "{\"index\":21,")) << reply;

    server.beginDrain();
    server.waitDrained();
    EXPECT_EQ(server.stats().completed.load(), 1u);
    EXPECT_EQ(server.stats().deadlineCancelled.load(), 0u);
}

TEST(Serve, DrainRejectsNewWorkAnswersInFlightAndCompletes)
{
    TempDir dir;
    serve::ServeOptions opts;
    opts.unixPath = dir.sock();
    opts.workers = 1;
    opts.drainGraceMs = 300;
    serve::SimServer server(opts);
    server.start();

    Client c(dir.sock());
    c.send(requestFrame(tinyJob(50'000'000, 0), 21));
    // Give the reader time to admit the job so the drain sees it
    // in-flight rather than never-sent.
    ::usleep(50'000);
    server.beginDrain();
    c.send(requestFrame(tinyJob(), 22));

    // The in-flight job either finishes inside the grace window or is
    // cancelled at its end; the post-drain frame must be refused. The
    // server closes the connection once drained, so read to EOF.
    std::vector<std::string> lines = c.readUntilEof();
    ASSERT_EQ(lines.size(), 2u);
    bool sawDraining = false, sawAnswer = false;
    for (const std::string &l : lines) {
        if (startsWith(l, "{\"error\":\"draining\""))
            sawDraining = true;
        else if (startsWith(l, "{\"index\":21,") ||
                 startsWith(l, "{\"error\":\"cancelled\""))
            sawAnswer = true;
    }
    EXPECT_TRUE(sawDraining);
    EXPECT_TRUE(sawAnswer);

    server.waitDrained();
}

TEST(Serve, DisconnectCancelsThatClientsJobs)
{
    TempDir dir;
    serve::ServeOptions opts;
    opts.unixPath = dir.sock();
    opts.workers = 1;
    serve::SimServer server(opts);
    server.start();

    {
        Client c(dir.sock());
        c.send(requestFrame(tinyJob(500'000'000, 0), 31));
        ::usleep(50'000); // let the job start
        // Client vanishes mid-job: ~Client closes the socket.
    }

    // Drain must complete promptly: the disconnect cancelled the job,
    // so nothing holds the worker for the full 500M instructions.
    server.beginDrain();
    server.waitDrained();
    EXPECT_GE(server.stats().disconnectCancelled.load(), 1u);
}

TEST(Serve, RepliesCorrelateById)
{
    TempDir dir;
    serve::ServeOptions opts;
    opts.unixPath = dir.sock();
    opts.workers = 4;
    opts.queueCapacity = 16;
    serve::SimServer server(opts);
    server.start();

    Client c(dir.sock());
    const int n = 8;
    for (int i = 0; i < n; ++i)
        c.send(requestFrame(tinyJob(), 100 + i));

    std::vector<bool> seen(n, false);
    for (int i = 0; i < n; ++i) {
        std::string reply = c.readLine();
        std::uint64_t id = serde::resultRecordIndex(reply);
        ASSERT_GE(id, 100u);
        ASSERT_LT(id, 100u + n);
        EXPECT_FALSE(seen[id - 100]) << "duplicate reply id " << id;
        seen[id - 100] = true;
    }

    server.beginDrain();
    server.waitDrained();
    EXPECT_EQ(server.stats().completed.load(),
              static_cast<std::uint64_t>(n));
}

TEST(Serve, ColdStartBuildsEachProgramOnceAndServesLikeRunJobs)
{
    TempDir dir;
    serve::ServeOptions opts;
    opts.unixPath = dir.sock();
    opts.workers = 2;
    opts.queueCapacity = 16;
    serve::SimServer server(opts);
    server.start();

    // One request per built-in benchmark, sent while start()'s program
    // builds may still be running.
    std::vector<SimJob> jobs;
    for (const std::string &name : benchmarkNames()) {
        SimJob j = tinyJob(3'000, 500);
        j.cfg.benchmark = name;
        jobs.push_back(j);
    }
    Client c(dir.sock());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        c.send(requestFrame(jobs[i], i));
    std::vector<std::string> served;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        served.push_back(c.readLine());

    std::ostringstream batch;
    JsonlResultsSink sink(batch);
    runJobs(jobs, sink, 2);
    std::vector<std::string> expected;
    std::istringstream lines(batch.str());
    for (std::string line; std::getline(lines, line);)
        expected.push_back(line);
    // Replies arrive in completion order; sorted, the one-digit ids
    // put them in the batch's submission order.
    std::sort(served.begin(), served.end());
    EXPECT_EQ(served, expected);

    // Every program was built exactly once in this process.
    c.send("{\"op\":\"metrics\",\"id\":1}\n");
    std::string metrics = c.readLine();
    EXPECT_NE(metrics.find("\"c.sim.program_builds\":8,"),
              std::string::npos)
        << metrics;

    SimJob bad = tinyJob(3'000, 500);
    bad.cfg.benchmark = "no_such_benchmark";
    c.send(requestFrame(bad, 20));
    std::string reply = c.readLine();
    EXPECT_TRUE(startsWith(reply, "{\"error\":\"bad_request\",\"id\":20"))
        << reply;
    c.send(requestFrame(jobs.front(), 0));
    EXPECT_EQ(c.readLine(), expected.front());

    server.beginDrain();
    server.waitDrained();
    EXPECT_EQ(server.stats().completed.load(), jobs.size() + 1);
}

TEST(Serve, HealthReportsStats)
{
    TempDir dir;
    serve::ServeOptions opts;
    opts.unixPath = dir.sock();
    opts.workers = 1;
    serve::SimServer server(opts);
    server.start();

    Client c(dir.sock());
    c.send("{\"op\":\"health\",\"id\":5}\n");
    std::string reply = c.readLine();
    EXPECT_TRUE(startsWith(reply, "{\"health\":5,")) << reply;
    EXPECT_NE(reply.find("\"isolate\":false"), std::string::npos)
        << reply;
    // No fleet in-process: the health record must say so by omission.
    EXPECT_EQ(reply.find("\"fleet\""), std::string::npos) << reply;

    server.beginDrain();
    server.waitDrained();
}

// ---------------------------------------------------------------------------
// Process isolation (--isolate): real serve-worker subprocesses
// ---------------------------------------------------------------------------

TEST(Serve, IsolatedResultIsByteIdenticalToDirectRun)
{
    TempDir dir;
    serve::SimServer server(isolatedOptions(dir, 2));
    server.start();

    SimJob j = tinyJob();
    Client c(dir.sock());
    c.send(requestFrame(j, 7));
    std::string reply = c.readLine();

    SimResults direct = Simulator(j.cfg).run();
    direct.experiment = j.experiment;
    EXPECT_EQ(reply, serde::resultRecordToJson(7, direct));

    // Health reports the fleet: two live workers, no restarts yet.
    c.send("{\"op\":\"health\",\"id\":8}\n");
    std::string health = c.readLine();
    EXPECT_TRUE(startsWith(health, "{\"health\":8,")) << health;
    EXPECT_NE(health.find("\"isolate\":true"), std::string::npos)
        << health;
    EXPECT_NE(health.find("\"fleet\":{\"workers\":2,"
                          "\"restarts_total\":0"),
              std::string::npos)
        << health;

    server.beginDrain();
    server.waitDrained();
    EXPECT_EQ(server.stats().completed.load(), 1u);
}

TEST(Serve, IsolatedWorkerCrashBecomesStructuredInternalError)
{
    // The crash hook makes a worker SIGSEGV on any job whose
    // experiment name contains the marker. With the poison threshold
    // out of reach, exhausting --job-attempts must answer `internal`
    // -- and the daemon, its other connections, and the next valid
    // job must be completely unaffected.
    EnvGuard crash(dist::kTestCrashOnJobEnv, "killer");
    TempDir dir;
    serve::ServeOptions opts = isolatedOptions(dir, 2);
    opts.jobAttempts = 2;
    opts.poisonThreshold = 100; // never quarantine in this test
    serve::SimServer server(opts);
    server.start();

    SimJob poison = tinyJob();
    poison.experiment = "baseline-killer";
    Client c(dir.sock());
    c.send(requestFrame(poison, 41));
    std::string reply = c.readLine();
    EXPECT_TRUE(startsWith(reply, "{\"error\":\"internal\"")) << reply;
    EXPECT_NE(reply.find("\"id\":41"), std::string::npos) << reply;

    // Crash containment: a valid job right after is served and stays
    // byte-identical to the direct run.
    SimJob good = tinyJob();
    c.send(requestFrame(good, 42));
    std::string served = c.readLine();
    SimResults direct = Simulator(good.cfg).run();
    direct.experiment = good.experiment;
    EXPECT_EQ(served, serde::resultRecordToJson(42, direct));

    // The two worker deaths are visible as supervised restarts.
    c.send("{\"op\":\"health\",\"id\":43}\n");
    std::string health = c.readLine();
    std::size_t at = health.find("\"restarts_total\":");
    ASSERT_NE(at, std::string::npos) << health;
    long restarts =
        std::strtol(health.c_str() + at + 17, nullptr, 10);
    EXPECT_GE(restarts, 2) << health;

    server.beginDrain();
    server.waitDrained();
    EXPECT_EQ(server.stats().internalErrors.load(), 1u);
    EXPECT_EQ(server.stats().completed.load(), 1u);
}

TEST(Serve, IsolatedPoisonJobIsQuarantined)
{
    EnvGuard crash(dist::kTestCrashOnJobEnv, "killer");
    TempDir dir;
    serve::ServeOptions opts = isolatedOptions(dir, 2);
    opts.jobAttempts = 6;
    opts.poisonThreshold = 2;
    serve::SimServer server(opts);
    server.start();

    SimJob poison = tinyJob();
    poison.experiment = "baseline-killer";
    Client c(dir.sock());
    c.send(requestFrame(poison, 51));
    std::string reply = c.readLine();
    EXPECT_TRUE(startsWith(reply, "{\"error\":\"poison\"")) << reply;
    EXPECT_NE(reply.find("consecutive workers"), std::string::npos)
        << reply;

    // Resending the same job must be refused from the quarantine set
    // without ever touching a worker again.
    c.send(requestFrame(poison, 52));
    reply = c.readLine();
    EXPECT_TRUE(startsWith(reply, "{\"error\":\"poison\"")) << reply;
    EXPECT_NE(reply.find("quarantined"), std::string::npos) << reply;

    // The identical cfg under its real experiment name is a different
    // fingerprint: still served, still byte-identical.
    SimJob good = tinyJob();
    c.send(requestFrame(good, 53));
    std::string served = c.readLine();
    SimResults direct = Simulator(good.cfg).run();
    direct.experiment = good.experiment;
    EXPECT_EQ(served, serde::resultRecordToJson(53, direct));

    server.beginDrain();
    server.waitDrained();
    EXPECT_EQ(server.stats().poisonRejected.load(), 2u);
    EXPECT_EQ(server.stats().completed.load(), 1u);
}

TEST(Serve, IsolatedDeadlineKillsTheWorkerMidJob)
{
    // Deadline semantics survive isolation: the fleet SIGKILLs the
    // executing worker at the deadline and the client still gets the
    // structured `deadline` error; the respawned worker then serves
    // the next job normally.
    TempDir dir;
    serve::SimServer server(isolatedOptions(dir, 1));
    server.start();

    Client c(dir.sock());
    c.send(requestFrame(tinyJob(500'000'000, 0), 61,
                        /*deadlineMs=*/40));
    std::string reply = c.readLine();
    EXPECT_TRUE(startsWith(reply, "{\"error\":\"deadline\"")) << reply;
    EXPECT_NE(reply.find("\"id\":61"), std::string::npos) << reply;

    SimJob good = tinyJob();
    c.send(requestFrame(good, 62));
    std::string served = c.readLine();
    SimResults direct = Simulator(good.cfg).run();
    direct.experiment = good.experiment;
    EXPECT_EQ(served, serde::resultRecordToJson(62, direct));

    server.beginDrain();
    server.waitDrained();
    EXPECT_EQ(server.stats().deadlineCancelled.load(), 1u);
    EXPECT_EQ(server.stats().completed.load(), 1u);
}
