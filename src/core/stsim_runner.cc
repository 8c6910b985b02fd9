/**
 * @file
 * stsim_runner: the out-of-process experiment engine CLI.
 *
 * A large benchmark x policy matrix runs as: one `manifest` emitting
 * the fully-specified job list (JSONL, one SimJob per line), N `run
 * --shard i/N` processes each executing its slice on its own RunPool
 * and streaming indexed results to disk as jobs complete, and one
 * `merge` restoring submission order. Because results carry their
 * manifest index and every double is hex-float encoded, the merged
 * stream is byte-identical to an in-process `dump` of the same
 * manifest -- the equivalence CI checks on every PR.
 *
 * Subcommands:
 *   manifest --suite NAME [--insts N] [--warmup N] [--depth D]
 *            [--out FILE]
 *   run      --manifest FILE [--shard I/N] [--jobs W]
 *            [--timeout-sec S] [--format jsonl|csv] [--out FILE]
 *            [--memoize-warmup] [--from-snapshot FILE]
 *   dump     --manifest FILE [--jobs W] [--format jsonl|csv]
 *            [--out FILE] [--memoize-warmup] [--from-snapshot FILE]
 *   snapshot --manifest FILE [--index I] [--out FILE]
 *   merge    --out FILE (--manifest FILE | --expect N) [--allow-dups]
 *            SHARD...
 *   report   --suite NAME [FILE]
 *   dispatch --manifest FILE --dir DIR [--shards N] ...
 *   resume   --dir DIR ...
 *   serve-worker   (stdin/stdout job loop for stsim_serve --isolate)
 *   help | --help | -h
 *
 * Sharding is by manifest index modulo N, so shard workloads stay
 * balanced even when a suite orders jobs benchmark-major. dispatch /
 * resume drive the fault-tolerant scheduler in src/dist/: shard
 * workers are subprocesses tracked through a crash-safe journal,
 * failed or straggling shards retry, and a SIGKILLed dispatcher picks
 * up exactly where the journal ends via resume.
 *
 * report closes the loop: it reads the complete record stream of a
 * suite's manifest (dump or merge output) and prints the suite's paper
 * tables (core/report.hh), so every figure runs through the same
 * manifest -> dump|run|dispatch -> report path.
 *
 * snapshot / --from-snapshot / --memoize-warmup expose the warmup
 * checkpoint API (core/state_serde.hh): `snapshot` runs one job's
 * warmup and writes the machine-state checkpoint; `run`/`dump
 * --from-snapshot` fork every job from that on-disk checkpoint, and
 * `--memoize-warmup` warms each distinct warmup-equivalence class
 * once per wave in memory. All of them commit results byte-identical
 * to from-scratch runs (the snapshot-equivalence CI gate).
 */

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <unistd.h>

#include "common/arg_parse.hh"
#include "common/logging.hh"
#include "core/job_serde.hh"
#include "core/parallel_harness.hh"
#include "core/report.hh"
#include "core/results_sink.hh"
#include "core/simulator.hh"
#include "core/suites.hh"
#include "dist/host_launcher.hh"
#include "dist/shard_scheduler.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "pipeline/core_config.hh"

using namespace stsim;

namespace
{

void
printUsage(std::FILE *to)
{
    std::string suites;
    for (const std::string &n : suiteNames())
        suites += (suites.empty() ? "" : ", ") + n;
    std::fprintf(to,
        "usage:\n"
        "  stsim_runner manifest --suite NAME [--insts N] "
        "[--warmup N] [--depth D] [--out FILE]\n"
        "  stsim_runner run --manifest FILE [--shard I/N] "
        "[--jobs W] [--timeout-sec S]\n"
        "               [--format jsonl|csv] [--out FILE] "
        "[--memoize-warmup]\n"
        "               [--from-snapshot FILE] [--trace FILE] "
        "[--metrics FILE]\n"
        "  stsim_runner dump --manifest FILE [--jobs W] "
        "[--format jsonl|csv] [--out FILE]\n"
        "               [--memoize-warmup] [--from-snapshot FILE] "
        "[--trace FILE]\n"
        "               [--metrics FILE]\n"
        "  stsim_runner snapshot --manifest FILE [--index I] "
        "[--out FILE]\n"
        "  stsim_runner merge --out FILE (--manifest FILE | "
        "--expect N) [--allow-dups] SHARD...\n"
        "  stsim_runner report --suite NAME [FILE]\n"
        "  stsim_runner dispatch --manifest FILE --dir DIR "
        "[--shards N] [--jobs W] [--max-attempts K]\n"
        "               [--concurrent C] [--timeout-sec S] "
        "[--retry-backoff-ms B]\n"
        "               [--retry-backoff-cap-ms C] [--runner PATH] "
        "[--trace FILE]\n"
        "               [--metrics FILE]\n"
        "  stsim_runner resume --dir DIR [--jobs W] "
        "[--max-attempts K] [--concurrent C]\n"
        "               [--timeout-sec S] [--runner PATH] "
        "[--trace FILE] [--metrics FILE]\n"
        "  stsim_runner serve-worker\n"
        "  stsim_runner help\n"
        "\n"
        "suites: %s.\n"
        "manifest --insts/--warmup/--depth override every job "
        "(--warmup 0 means none;\n"
        "--depth lies in [%u,%u] and cannot flatten fig6's sweep). "
        "report prints a suite's\n"
        "paper tables from the complete JSONL record stream of its "
        "manifest (dump or\n"
        "merge output) in FILE, or stdin when FILE is omitted.\n"
        "\n"
        "merge derives the expected record count from --manifest "
        "(--expect overrides it);\n"
        "--allow-dups keeps the first record per index and verifies "
        "re-run shards produced\n"
        "byte-identical lines. dispatch runs shards as local "
        "subprocesses behind a crash-safe\n"
        "journal (DIR/journal.jsonl); after any crash, resume "
        "re-launches only unfinished\n"
        "shards. Completed shard files are immutable "
        "(exclusive-rename finalize).\n"
        "\n"
        "snapshot runs one manifest job's warmup (--index, default 0) "
        "and writes its\n"
        "machine-state checkpoint; run/dump --from-snapshot fork every "
        "job from that\n"
        "checkpoint (every job must share the snapshot's warmup class: "
        "only run length\n"
        "and power parameters may differ). --memoize-warmup instead "
        "warms each distinct\n"
        "class once per wave, in memory. Both commit results "
        "byte-identical to\n"
        "from-scratch runs.\n"
        "\n"
        "--trace FILE writes a Chrome trace_event JSON span trace of "
        "the command\n"
        "(open it in Perfetto or chrome://tracing); --metrics FILE "
        "writes the final\n"
        "metrics-registry snapshot as one JSONL record. Neither "
        "perturbs results:\n"
        "output files are byte-identical with and without them.\n",
        suites.c_str(), kMinPipelineDepth, kMaxPipelineDepth);
}

[[noreturn]] void
usage(const char *msg = nullptr)
{
    if (msg)
        std::fprintf(stderr, "stsim_runner: %s\n", msg);
    printUsage(stderr);
    std::exit(2);
}

/**
 * The runner's diagnostic style for the shared FlagSet parser: every
 * parse error is a usage() exit-2 with the exact historical message
 * shapes ("X needs a value", "bad X 'V'", "unknown flag X"), asserted
 * verbatim in tests/test_runner_cli.cc.
 */
args::Diag
runnerDiag()
{
    args::Diag d;
    d.missingValue = [](const char *flag) {
        usage((std::string(flag) + " needs a value").c_str());
    };
    d.unknown = [](const char *arg) {
        usage(("unknown flag " + std::string(arg)).c_str());
    };
    d.badValue = [](const char *flag, const char *value) {
        usage((std::string("bad ") + flag + " '" + value + "'").c_str());
    };
    d.notPositive = [](const char *flag) {
        usage((std::string(flag) + " must be positive").c_str());
    };
    return d;
}

/** Output stream selection: --out FILE or stdout. */
class OutFile
{
  public:
    explicit OutFile(const std::string &path) : path_(path)
    {
        if (path.empty() || path == "-")
            return;
        file_.open(path);
        if (!file_)
            stsim_fatal("cannot open '%s' for writing: %s",
                        path.c_str(), std::strerror(errno));
    }

    std::ostream &stream() { return file_.is_open() ? file_ : std::cout; }

    /** Flush and verify; a failed stream takes outputWriteFailed(). */
    void
    finish(const char *what)
    {
        stream().flush();
        if (!stream())
            outputWriteFailed(what, path_);
    }

  private:
    std::string path_;
    std::ofstream file_;
};

/**
 * Fault-injection sink for the dispatch gate (dist::kTestHangEnv):
 * commits the first record, then stalls so the test harness can
 * SIGKILL a worker that is deterministically mid-shard. It stalls
 * inside write(), before the engine's per-commit flush would run, so
 * it flushes the record itself.
 */
class HangAfterFirstRecordSink : public ResultsSink
{
  public:
    explicit HangAfterFirstRecordSink(ResultsSink &inner)
        : inner_(inner)
    {
    }

    void
    write(std::uint64_t index, const SimResults &r) override
    {
        inner_.write(index, r);
        if (hung_)
            return;
        hung_ = true;
        inner_.flush(); // the record must be visible to the killer
        for (int i = 0; i < 1200; ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        stsim_fatal("test hang expired without a SIGKILL");
    }

    void flush() override { inner_.flush(); }

  private:
    ResultsSink &inner_;
    bool hung_ = false;
};

/**
 * The run/dump/dispatch observability surfaces: --trace FILE installs
 * a process-wide span sink for the command's duration and writes the
 * Chrome trace JSON on the way out; --metrics FILE writes the final
 * metrics-registry snapshot (one JSONL record). Both are written by
 * the destructor so every successful return path is covered; fatal
 * exits (which bypass destructors) intentionally leave no files.
 */
class ObsSession
{
  public:
    void
    registerFlags(args::FlagSet &fs)
    {
        fs.str("--trace", "FILE", &tracePath_)
            .str("--metrics", "FILE", &metricsPath_);
    }

    /** Call once after parse(), before the work starts. */
    void
    begin()
    {
        if (!tracePath_.empty()) {
            sink_ = std::make_unique<obs::TraceSink>();
            obs::TraceSink::install(sink_.get());
        }
    }

    ~ObsSession()
    {
        if (sink_) {
            obs::TraceSink::install(nullptr);
            if (!sink_->writeFile(tracePath_)) {
                stsim_warn("cannot write trace file %s: %s",
                           tracePath_.c_str(), std::strerror(errno));
            }
        }
        if (!metricsPath_.empty() &&
            !obs::Registry::instance().writeSnapshotFile(metricsPath_)) {
            stsim_warn("cannot write metrics file %s: %s",
                       metricsPath_.c_str(), std::strerror(errno));
        }
    }

  private:
    std::string tracePath_;
    std::string metricsPath_;
    std::unique_ptr<obs::TraceSink> sink_;
};

/** Whole-file read for snapshot images (newlines are significant). */
std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        stsim_fatal("cannot read '%s': %s", path.c_str(),
                    std::strerror(errno));
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        stsim_fatal("cannot read '%s': %s", path.c_str(),
                    std::strerror(errno));
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty())
            lines.push_back(line);
    }
    return lines;
}

int
cmdManifest(int argc, char **argv)
{
    std::string suite, out_path;
    std::uint64_t insts = 0, warmup = 0, depth = 0;
    args::FlagSet fs(runnerDiag());
    fs.str("--suite", "NAME", &suite)
        .u64Positive("--insts", "N", &insts)
        .u64("--warmup", "N", &warmup)
        .u64("--depth", "D", &depth)
        .str("--out", "FILE", &out_path);
    fs.parse(argc, argv, 2);
    if (suite.empty())
        usage("manifest needs --suite");
    const bool setDepth = fs.seen("--depth");
    if (setDepth &&
        (depth < kMinPipelineDepth || depth > kMaxPipelineDepth)) {
        usage(("--depth must lie in [" + std::to_string(kMinPipelineDepth) +
               "," + std::to_string(kMaxPipelineDepth) + "]")
                  .c_str());
    }
    if (setDepth && suite == "fig6")
        usage("--depth would flatten fig6's pipeline-depth sweep");

    std::vector<SimJob> jobs = suiteJobs(suite);
    for (SimJob &j : jobs) {
        if (insts)
            j.cfg.maxInstructions = insts;
        if (fs.seen("--warmup"))
            j.cfg.warmupInstructions = warmup;
        if (setDepth)
            j.cfg.pipelineDepth = static_cast<unsigned>(depth);
    }

    OutFile out(out_path);
    for (const SimJob &j : jobs) {
        out.stream() << serde::toJson(j) << '\n';
        if (!out.stream())
            break; // poisoned (consumer gone?): finish() decides
    }
    out.finish("manifest");
    std::fprintf(stderr, "stsim_runner: %zu jobs (suite %s)\n",
                 jobs.size(), suite.c_str());
    return 0;
}

/**
 * Self-watchdog for `run --timeout-sec`: if the shard wedges (a hung
 * sink, a stuck filesystem), SIGALRM fires and the handler hard-exits
 * with code 124 -- async-signal-safe (raw write + _exit), so a CI
 * dispatcher never waits on a zombie shard forever.
 */
extern "C" void
runTimeoutHandler(int)
{
    static const char msg[] =
        "stsim_runner: run timed out (--timeout-sec watchdog)\n";
    ssize_t n = ::write(2, msg, sizeof msg - 1);
    (void)n;
    ::_exit(124);
}

int
cmdRunOrDump(int argc, char **argv, bool sharded)
{
    std::string manifest, out_path, format, snapshot_path;
    args::Shard shard;
    unsigned timeoutSec = 0; // alarm()'s type
    unsigned workers = 0;
    bool memoize = false;
    args::FlagSet fs(runnerDiag());
    fs.str("--manifest", "FILE", &manifest);
    if (sharded) {
        fs.flag("--shard", "I/N", [&](const char *spec) {
            std::optional<args::Shard> s = args::decodeShard(spec);
            if (!s)
                usage("--shard wants I/N with 0 <= I < N");
            shard = *s;
        });
    }
    fs.u64("--jobs", "W", &workers);
    if (sharded)
        fs.u64("--timeout-sec", "S", &timeoutSec);
    fs.str("--format", "jsonl|csv", &format)
        .str("--out", "FILE", &out_path)
        .boolean("--memoize-warmup", &memoize)
        .str("--from-snapshot", "FILE", &snapshot_path);
    ObsSession obsSession;
    obsSession.registerFlags(fs);
    fs.parse(argc, argv, 2);
    if (manifest.empty())
        usage("--manifest is required");
    obsSession.begin();
    if (memoize && !snapshot_path.empty())
        usage("--memoize-warmup and --from-snapshot are mutually "
              "exclusive");
    if (timeoutSec) {
        struct sigaction sa;
        std::memset(&sa, 0, sizeof sa);
        sa.sa_handler = runTimeoutHandler;
        sigemptyset(&sa.sa_mask);
        ::sigaction(SIGALRM, &sa, nullptr);
        ::alarm(timeoutSec);
    }

    std::vector<std::string> lines = readLines(manifest);
    if (lines.empty())
        stsim_fatal("manifest '%s' holds no jobs", manifest.c_str());
    std::unique_ptr<ResultsSink> sink = openSink(out_path, format);

    // Warmup options: forked-from-disk snapshot, memoized in-memory
    // warmup, or neither (every job warms itself). The snapshot image
    // lives here for the wave's duration; the engine only borrows it.
    std::string snapshot;
    RunOptions ropts;
    ropts.workers = workers;
    ropts.memoizeWarmup = memoize;
    if (!snapshot_path.empty()) {
        snapshot = readFile(snapshot_path);
        ropts.fromSnapshot = &snapshot;
    }
    // A failed write aborts the wave at the commit that hit it; the
    // write-failure rule then runs here, once every worker has stopped.
    auto wave = [&](const std::vector<SimJob> &jobs, ResultsSink &to) {
        try {
            return runJobs(jobs, to, ropts);
        } catch (const SinkWriteError &) {
            outputWriteFailed(sharded ? "run" : "dump", out_path);
        }
    };

    if (!sharded) {
        // In-process reference path: the whole matrix through the
        // streaming engine into the same serializer. This is the
        // byte-wise comparison target for a sharded merge.
        std::vector<SimJob> all;
        all.reserve(lines.size());
        for (const std::string &line : lines)
            all.push_back(serde::jobFromJson(line));
        StreamStats stats = wave(all, *sink);
        std::fprintf(stderr, "stsim_runner: dumped %zu results\n",
                     all.size());
        if (memoize) {
            std::fprintf(stderr,
                         "stsim_runner: %zu warmup(s) for %zu jobs "
                         "(memoized)\n",
                         stats.warmupsRun, all.size());
        }
        return 0;
    }

    // Parse only this shard's slice: a shard of a huge manifest must
    // not pay the whole matrix's parse cost and job memory.
    std::vector<SimJob> mine;
    std::vector<std::uint64_t> globalIndex;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (i % shard.count == shard.index) {
            mine.push_back(serde::jobFromJson(lines[i]));
            globalIndex.push_back(i);
        }
    }
    ResultsSink *commit = sink.get();
    std::unique_ptr<HangAfterFirstRecordSink> hang;
    if (std::getenv(dist::kTestHangEnv)) {
        hang = std::make_unique<HangAfterFirstRecordSink>(*commit);
        commit = hang.get();
    }
    IndexRemapSink remap(*commit, std::move(globalIndex));
    StreamStats stats = wave(mine, remap);
    std::fprintf(stderr,
                 "stsim_runner: shard %llu/%llu ran %zu of %zu jobs "
                 "(max %zu results held for reorder)\n",
                 static_cast<unsigned long long>(shard.index),
                 static_cast<unsigned long long>(shard.count), mine.size(),
                 lines.size(), stats.maxPending);
    if (memoize) {
        std::fprintf(stderr,
                     "stsim_runner: %zu warmup(s) for %zu jobs "
                     "(memoized)\n",
                     stats.warmupsRun, mine.size());
    }
    return 0;
}

/**
 * snapshot: run one manifest job's warmup and write the machine-state
 * checkpoint. Any job of the same warmup class (same benchmark, seed,
 * machine, predictor and throttle config -- only run length and power
 * parameters free) can then fork from it via run/dump --from-snapshot.
 */
int
cmdSnapshot(int argc, char **argv)
{
    std::string manifest, out_path;
    std::uint64_t index = 0;
    args::FlagSet fs(runnerDiag());
    fs.str("--manifest", "FILE", &manifest)
        .u64("--index", "I", &index)
        .str("--out", "FILE", &out_path);
    fs.parse(argc, argv, 2);
    if (manifest.empty())
        usage("--manifest is required");

    std::vector<std::string> lines = readLines(manifest);
    if (lines.empty())
        stsim_fatal("manifest '%s' holds no jobs", manifest.c_str());
    if (index >= lines.size())
        stsim_fatal("snapshot: --index %llu out of range (manifest "
                    "has %zu jobs)",
                    static_cast<unsigned long long>(index),
                    lines.size());

    SimJob job = serde::jobFromJson(lines[index]);
    Simulator sim(job.cfg);
    sim.runWarmup();
    std::string snap = sim.saveSnapshot();

    OutFile out(out_path);
    out.stream().write(snap.data(),
                       static_cast<std::streamsize>(snap.size()));
    out.finish("snapshot");
    std::fprintf(stderr,
                 "stsim_runner: wrote warmup snapshot for job %llu "
                 "(%zu bytes)\n",
                 static_cast<unsigned long long>(index), snap.size());
    return 0;
}

int
cmdMerge(int argc, char **argv)
{
    std::string out_path, manifest;
    std::uint64_t expect = 0;
    bool allowDups = false;
    std::vector<std::string> inputs;
    args::FlagSet fs(runnerDiag());
    fs.str("--out", "FILE", &out_path)
        .u64("--expect", "N", &expect)
        .str("--manifest", "FILE", &manifest)
        .boolean("--allow-dups", &allowDups);
    fs.parse(argc, argv, 2,
             [&](const char *arg) { inputs.push_back(arg); });
    if (inputs.empty())
        usage("merge needs at least one shard file");
    if (!expect && manifest.empty()) {
        // Without a completeness target, a stream truncated at the
        // tail would merge "cleanly" -- refuse to pretend.
        usage("merge needs --manifest (or --expect) to know the "
              "expected record count");
    }

    // The manifest is the authority on what a complete merge holds:
    // records are indexed 0..jobs-1, so its line count IS the
    // expected index set. --expect stays as an explicit override.
    if (!expect) {
        expect = dist::countRecords(manifest);
        if (!expect)
            stsim_fatal("merge: manifest '%s' holds no jobs",
                        manifest.c_str());
    }

    // Streaming k-way merge: each shard file is already
    // index-ascending (the sink commits in submission order), so one
    // line per open shard is all that is ever held — merge memory is
    // O(shards), not O(matrix). Records pass through verbatim, so the
    // merged bytes are the producing serializer's bytes.
    struct Cursor
    {
        std::ifstream in;
        std::string line;
        std::uint64_t idx = 0;
        bool live = false;
    };
    std::vector<Cursor> cursors(inputs.size());
    auto advance = [&](std::size_t c) {
        Cursor &cur = cursors[c];
        const bool had = cur.live;
        const std::uint64_t prev = cur.idx;
        cur.live = false;
        while (std::getline(cur.in, cur.line)) {
            if (cur.line.empty())
                continue;
            std::uint64_t idx = serde::resultRecordIndex(cur.line);
            if (had && idx <= prev) {
                stsim_fatal("merge: '%s' is not index-ascending",
                            inputs[c].c_str());
            }
            cur.idx = idx;
            cur.live = true;
            return;
        }
    };
    for (std::size_t c = 0; c < inputs.size(); ++c) {
        cursors[c].in.open(inputs[c]);
        if (!cursors[c].in)
            stsim_fatal("cannot read '%s': %s", inputs[c].c_str(),
                        std::strerror(errno));
        advance(c);
    }

    OutFile out(out_path);
    std::uint64_t want = 0;
    std::uint64_t dupsDropped = 0;
    std::string lastEmitted;
    for (;;) {
        std::size_t min_c = inputs.size();
        for (std::size_t c = 0; c < cursors.size(); ++c) {
            if (cursors[c].live &&
                (min_c == inputs.size() ||
                 cursors[c].idx < cursors[min_c].idx)) {
                min_c = c;
            }
        }
        if (min_c == inputs.size())
            break;
        if (cursors[min_c].idx < want) {
            if (!allowDups) {
                stsim_fatal("merge: duplicate result index %llu "
                            "(re-run shards need --allow-dups)",
                            static_cast<unsigned long long>(
                                cursors[min_c].idx));
            }
            // Dup-tolerant path for re-run shards: because every
            // cursor is primed before the loop and each file is
            // strictly index-ascending, a duplicate can only be a
            // copy of the record emitted immediately before -- so a
            // single held line suffices to verify the re-run is
            // byte-identical before the copy is discarded.
            if (cursors[min_c].idx != want - 1 ||
                cursors[min_c].line != lastEmitted) {
                stsim_fatal("merge: duplicate records for index %llu "
                            "are not byte-identical (shard re-run "
                            "was not deterministic?)",
                            static_cast<unsigned long long>(
                                cursors[min_c].idx));
            }
            ++dupsDropped;
            advance(min_c);
            continue;
        }
        if (cursors[min_c].idx > want)
            stsim_fatal("merge: missing result index %llu",
                        static_cast<unsigned long long>(want));
        lastEmitted = cursors[min_c].line;
        out.stream() << lastEmitted << '\n';
        if (!out.stream()) {
            // Either a vanished stdout consumer (clean exit 0 inside
            // finish) or a real write failure (fatal) -- but never a
            // truncated merge passed off as complete.
            out.finish("merge");
        }
        ++want;
        advance(min_c);
    }
    if (expect && want != expect) {
        stsim_fatal("merge: expected %llu records, found %llu",
                    static_cast<unsigned long long>(expect),
                    static_cast<unsigned long long>(want));
    }
    if (want == 0)
        stsim_fatal("merge: shard files hold no records");
    out.finish("merge");
    std::fprintf(stderr,
                 "stsim_runner: merged %llu results from %zu "
                 "shard files (%llu duplicate record(s) verified "
                 "and dropped)\n",
                 static_cast<unsigned long long>(want), inputs.size(),
                 static_cast<unsigned long long>(dupsDropped));
    return 0;
}

/**
 * report: check that a record stream is exactly the given suite's
 * results, then print the suite's paper tables.
 */
int
cmdReport(int argc, char **argv)
{
    std::string suite, input;
    args::FlagSet fs(runnerDiag());
    fs.str("--suite", "NAME", &suite);
    fs.parse(argc, argv, 2, [&](const char *arg) {
        if (!input.empty())
            usage("report takes at most one input file");
        input = arg;
    });
    if (suite.empty())
        usage("report needs --suite");

    std::vector<SimJob> jobs = suiteJobs(suite);
    std::vector<SimResults> results;
    if (input.empty()) {
        results = readSuiteRecords(std::cin, jobs);
    } else {
        std::ifstream in(input);
        if (!in)
            stsim_fatal("cannot read '%s': %s", input.c_str(),
                        std::strerror(errno));
        results = readSuiteRecords(in, jobs);
    }
    OutFile out("");
    printReport(suite, jobs, results, out.stream());
    out.finish("report");
    return 0;
}

/**
 * Fleet worker mode for stsim_serve --isolate: one JSONL request
 * frame per stdin line (the ServeRequest shape the daemon already
 * speaks), one reply line per request on stdout. Results use the
 * exact `dump` serializer, so whatever the daemon forwards verbatim
 * stays byte-identical to an in-process run. A hostile config becomes
 * a structured bad_request reply via FatalCaptureScope; a genuine
 * crash takes down only this process -- that is the point.
 */
int
cmdServeWorker(int argc, char **argv)
{
    (void)argv;
    if (argc > 2)
        usage("serve-worker takes no flags");
    const char *crashMarker = std::getenv(dist::kTestCrashOnJobEnv);

    // Hello line first: the supervisor treats it as proof the exec
    // succeeded and the pipe is live before dispatching any job.
    {
        serde::FlatWriter hello;
        hello.u64("worker_hello",
                  static_cast<std::uint64_t>(::getpid()));
        std::string line = hello.finish();
        line.push_back('\n');
        std::fwrite(line.data(), 1, line.size(), stdout);
        std::fflush(stdout);
    }

    std::string line;
    while (std::getline(std::cin, line)) {
        if (line.empty())
            continue;
        serde::ServeRequest req;
        std::string reply;
        serde::ParseOutcome parsed = serde::parseServeRequest(line, req);
        if (!parsed) {
            serde::FlatWriter w;
            w.str("error", "bad_request");
            w.u64("id", 0);
            w.str("detail", parsed.error);
            reply = w.finish();
        } else if (req.ping || req.health) {
            serde::FlatWriter w;
            w.u64("pong", req.id);
            reply = w.finish();
        } else {
            if (crashMarker && *crashMarker &&
                req.job.experiment.find(crashMarker) !=
                    std::string::npos) {
                // Fault injection (dist::kTestCrashOnJobEnv): commit a
                // torn partial reply, then die mid-job. The supervisor
                // must discard the fragment and report the crash.
                std::fputs("{\"index\":", stdout);
                std::fflush(stdout);
                volatile int *p = nullptr;
                *p = 1; // SIGSEGV
            }
            FatalCaptureScope scope;
            try {
                Simulator sim(req.job.cfg);
                SimResults r = sim.run();
                r.experiment = req.job.experiment;
                reply = serde::resultRecordToJson(req.id, r);
            } catch (const FatalError &e) {
                serde::FlatWriter w;
                w.str("error", "bad_request");
                w.u64("id", req.id);
                w.str("detail", e.what());
                reply = w.finish();
            }
        }
        reply.push_back('\n');
        if (std::fwrite(reply.data(), 1, reply.size(), stdout) !=
                reply.size() ||
            std::fflush(stdout) != 0) {
            return 0; // supervisor is gone; nothing left to serve
        }
    }
    // stdin EOF: the supervisor closed our pipe -- clean retirement.
    return 0;
}

int
cmdDispatchOrResume(int argc, char **argv, bool isResume)
{
    dist::DispatchOptions opts;
    std::string runner;
    args::FlagSet fs(runnerDiag());
    if (!isResume) {
        fs.str("--manifest", "FILE", &opts.manifest)
            .u64("--shards", "N", &opts.shards);
    }
    fs.str("--dir", "DIR", &opts.dir)
        .u64("--jobs", "W", &opts.workersPerShard)
        .u64("--max-attempts", "K", &opts.maxAttempts)
        .u64("--concurrent", "C", &opts.maxConcurrent)
        .flag("--timeout-sec", "S",
              [&](const char *v) {
                  // Bounded so the timeout fits in milliseconds.
                  opts.shardTimeout = std::chrono::seconds(fs.u64Value(
                      "--timeout-sec", v,
                      std::chrono::milliseconds::max().count() / 1000));
              })
        .u64("--retry-backoff-ms", "B", &opts.retryBackoffBaseMs)
        .u64("--retry-backoff-cap-ms", "C", &opts.retryBackoffCapMs)
        .str("--runner", "PATH", &runner);
    if (!isResume) {
        fs.u64("--test-kill-shard", "N", &opts.testKillShard)
            .boolean("--test-die-after-kill", &opts.testDieAfterKill);
    }
    ObsSession obsSession;
    obsSession.registerFlags(fs);
    fs.parse(argc, argv, 2);
    if (opts.dir.empty())
        usage("--dir is required");
    if (!isResume && opts.manifest.empty())
        usage("--manifest is required");
    if (opts.maxAttempts == 0)
        usage("--max-attempts must be positive");
    obsSession.begin();

    if (runner.empty())
        runner = dist::LocalProcessLauncher::selfExecutable();
    dist::LocalProcessLauncher launcher(runner);
    dist::ShardScheduler sched(std::move(opts), launcher);
    return isResume ? sched.resume() : sched.dispatch();
}

} // namespace

int
main(int argc, char **argv)
{
    // Piping `manifest`/`merge`/`dump` output into `head` must not
    // kill the process with SIGPIPE: ignore it and let writes fail
    // with EPIPE, which the stream paths turn into a clean exit 0.
    ::signal(SIGPIPE, SIG_IGN);

    if (argc < 2)
        usage();
    const char *cmd = argv[1];
    if (!std::strcmp(cmd, "help") || !std::strcmp(cmd, "--help") ||
        !std::strcmp(cmd, "-h")) {
        printUsage(stdout);
        return 0;
    }
    if (!std::strcmp(cmd, "manifest"))
        return cmdManifest(argc, argv);
    if (!std::strcmp(cmd, "run"))
        return cmdRunOrDump(argc, argv, /*sharded=*/true);
    if (!std::strcmp(cmd, "dump"))
        return cmdRunOrDump(argc, argv, /*sharded=*/false);
    if (!std::strcmp(cmd, "snapshot"))
        return cmdSnapshot(argc, argv);
    if (!std::strcmp(cmd, "merge"))
        return cmdMerge(argc, argv);
    if (!std::strcmp(cmd, "report"))
        return cmdReport(argc, argv);
    if (!std::strcmp(cmd, "dispatch"))
        return cmdDispatchOrResume(argc, argv, /*isResume=*/false);
    if (!std::strcmp(cmd, "resume"))
        return cmdDispatchOrResume(argc, argv, /*isResume=*/true);
    if (!std::strcmp(cmd, "serve-worker"))
        return cmdServeWorker(argc, argv);
    usage(("unknown subcommand '" + std::string(cmd) + "'").c_str());
}
