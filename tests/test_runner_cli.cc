/**
 * @file
 * Subprocess tests for the CLI surfaces: help goes to stdout with
 * exit 0 (so `stsim_runner --help | less` works), the merge failure
 * paths die with their exact fatal diagnostics -- duplicate index,
 * missing index, non-index-ascending shard files, manifest-derived
 * record counts, and the dup-tolerant verify -- manifest validates
 * its overrides, report renders a suite only from exactly that
 * suite's records, `dump | head` stops at the next commit, a failed
 * --out write names its path, and, since all three
 * binaries parse flags through common/arg_parse.hh, the help texts
 * and exit-2 diagnostics of stsim_serve and stsim_loadgen are
 * asserted byte-for-byte against their pre-refactor goldens.
 *
 * The binaries under test are baked in as STSIM_RUNNER_PATH,
 * STSIM_SERVE_PATH, and STSIM_LOADGEN_PATH by CMake.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <stdlib.h>
#include <sys/wait.h>

#include "core/suites.hh"

namespace
{

struct CmdResult
{
    int exitCode = -1;
    std::string output;
};

/** Run @p cmd through the shell, capturing the chosen streams. */
CmdResult
run(const std::string &cmd)
{
    CmdResult r;
    FILE *p = ::popen(cmd.c_str(), "r");
    EXPECT_NE(p, nullptr) << cmd;
    if (!p)
        return r;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, p)) > 0)
        r.output.append(buf, n);
    int status = ::pclose(p);
    r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return r;
}

std::string
runner()
{
    return STSIM_RUNNER_PATH;
}

std::string
serveBin()
{
    return STSIM_SERVE_PATH;
}

std::string
loadgenBin()
{
    return STSIM_LOADGEN_PATH;
}

struct TempDir
{
    std::string path;

    TempDir()
    {
        char buf[] = "/tmp/stsim_cli_test.XXXXXX";
        char *p = ::mkdtemp(buf);
        EXPECT_NE(p, nullptr);
        path = p;
    }

    ~TempDir()
    {
        std::string cmd = "rm -rf '" + path + "'";
        [[maybe_unused]] int rc = std::system(cmd.c_str());
    }

    std::string
    file(const std::string &base, const std::string &content) const
    {
        std::string full = path + "/" + base;
        std::ofstream out(full, std::ios::binary);
        EXPECT_TRUE(out.is_open()) << full;
        out << content;
        return full;
    }
};

/** One fake result record line; merge only parses the index field. */
std::string
rec(std::uint64_t idx, const std::string &tag = "x")
{
    return "{\"index\":" + std::to_string(idx) + ",\"results\":\"" +
           tag + "\"}\n";
}

} // namespace

TEST(RunnerHelp, PrintsUsageOnStdoutAndExitsZero)
{
    for (const char *flag : {"help", "--help", "-h"}) {
        CmdResult r = run(runner() + " " + flag + " 2>/dev/null");
        EXPECT_EQ(r.exitCode, 0) << flag;
        EXPECT_NE(r.output.find("usage:"), std::string::npos) << flag;
        EXPECT_NE(r.output.find("dispatch"), std::string::npos) << flag;
    }
}

TEST(RunnerHelp, BadInvocationStillFailsOnStderr)
{
    // No args: usage on stderr, exit 2, nothing on stdout.
    CmdResult out = run(runner() + " 2>/dev/null");
    EXPECT_EQ(out.exitCode, 2);
    EXPECT_TRUE(out.output.empty());
    CmdResult err = run(runner() + " 2>&1 >/dev/null");
    EXPECT_EQ(err.exitCode, 2);
    EXPECT_NE(err.output.find("usage:"), std::string::npos);
}

TEST(MergeFailure, RequiresACompletenessTarget)
{
    // The usage line promises (--manifest FILE | --expect N); the
    // code must actually enforce it, or a tail-truncated stream
    // would merge "cleanly".
    TempDir tmp;
    std::string a = tmp.file("a.jsonl", rec(0) + rec(1));
    CmdResult r = run(runner() + " merge --out /dev/null '" + a +
                      "' 2>&1 >/dev/null");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_NE(r.output.find("merge needs --manifest"),
              std::string::npos)
        << r.output;
}

TEST(MergeFailure, DuplicateIndexDiagnostic)
{
    TempDir tmp;
    std::string a = tmp.file("a.jsonl", rec(0) + rec(1));
    std::string b = tmp.file("b.jsonl", rec(1) + rec(2));
    CmdResult r = run(runner() + " merge --expect 3 --out /dev/null '" +
                      a + "' '" + b + "' 2>&1 >/dev/null");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("fatal: merge: duplicate result index 1 "
                            "(re-run shards need --allow-dups)"),
              std::string::npos)
        << r.output;
}

TEST(MergeFailure, MissingIndexDiagnostic)
{
    TempDir tmp;
    std::string a = tmp.file("a.jsonl", rec(0) + rec(2));
    CmdResult r = run(runner() + " merge --expect 3 --out /dev/null '" +
                      a + "' 2>&1 >/dev/null");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("fatal: merge: missing result index 1"),
              std::string::npos)
        << r.output;
}

TEST(MergeFailure, NonAscendingShardFileDiagnostic)
{
    // The descent must sit past the first record: the merge discovers
    // per-file order violations as it advances a cursor, and a file
    // opening too high trips the gap check first instead.
    TempDir tmp;
    std::string a = tmp.file("a.jsonl", rec(0) + rec(2) + rec(1));
    std::string b = tmp.file("b.jsonl", rec(1));
    CmdResult r = run(runner() + " merge --expect 4 --out /dev/null '" +
                      a + "' '" + b + "' 2>&1 >/dev/null");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("fatal: merge: '" + a +
                            "' is not index-ascending"),
              std::string::npos)
        << r.output;
}

TEST(MergeFailure, ManifestDerivedCountCatchesTruncation)
{
    TempDir tmp;
    std::string manifest =
        tmp.file("manifest.jsonl", "{\"job\":0}\n{\"job\":1}\n"
                                   "{\"job\":2}\n");
    std::string a = tmp.file("a.jsonl", rec(0) + rec(1));
    CmdResult r = run(runner() + " merge --manifest '" + manifest +
                      "' --out /dev/null '" + a + "' 2>&1 >/dev/null");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("fatal: merge: expected 3 records, "
                            "found 2"),
              std::string::npos)
        << r.output;
}

TEST(MergeFailure, ExpectOverridesManifest)
{
    TempDir tmp;
    std::string manifest =
        tmp.file("manifest.jsonl", "{\"job\":0}\n{\"job\":1}\n"
                                   "{\"job\":2}\n");
    std::string a = tmp.file("a.jsonl", rec(0) + rec(1));
    CmdResult r = run(runner() + " merge --manifest '" + manifest +
                      "' --expect 2 --out /dev/null '" + a +
                      "' 2>/dev/null");
    EXPECT_EQ(r.exitCode, 0) << r.output;
}

TEST(MergeDups, IdenticalDuplicatesAreVerifiedAndDropped)
{
    TempDir tmp;
    std::string a =
        tmp.file("a.jsonl", rec(0, "a") + rec(1, "b") + rec(2, "c"));
    std::string b = tmp.file("b.jsonl", rec(1, "b")); // identical re-run
    std::string out = tmp.path + "/merged.jsonl";
    CmdResult r = run(runner() + " merge --allow-dups --expect 3 "
                      "--out '" + out + "' '" + a + "' '" + b +
                      "' 2>/dev/null");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    std::ifstream merged(out);
    std::string text((std::istreambuf_iterator<char>(merged)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(text, rec(0, "a") + rec(1, "b") + rec(2, "c"));
}

TEST(MergeDups, DifferingDuplicateIsFatal)
{
    TempDir tmp;
    std::string a =
        tmp.file("a.jsonl", rec(0, "a") + rec(1, "b") + rec(2, "c"));
    std::string b = tmp.file("b.jsonl", rec(1, "DIFFERENT"));
    CmdResult r = run(runner() + " merge --allow-dups --expect 3 "
                      "--out /dev/null '" + a + "' '" + b +
                      "' 2>&1 >/dev/null");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.output.find("fatal: merge: duplicate records for "
                            "index 1 are not byte-identical"),
              std::string::npos)
        << r.output;
}

TEST(SigPipe, MergePipedIntoHeadExitsZero)
{
    // ~200KB of records overflows the 64KB pipe buffer, so the merge
    // is still writing when `head` exits: the write fails with EPIPE
    // (SIGPIPE is ignored) and the runner must treat a vanished stdout
    // consumer as a clean, successful early exit.
    TempDir tmp;
    std::string content;
    for (int i = 0; i < 5000; ++i)
        content += rec(i);
    std::string a = tmp.file("a.jsonl", content);
    CmdResult r = run("bash -c '\"" STSIM_RUNNER_PATH "\" merge "
                      "--expect 5000 --out - \"" + a + "\" 2>/dev/null "
                      "| head -c 64 >/dev/null; "
                      "exit ${PIPESTATUS[0]}'");
    EXPECT_EQ(r.exitCode, 0);
}

TEST(SigPipe, ManifestPipedIntoHeadExitsZero)
{
    CmdResult r = run("bash -c '\"" STSIM_RUNNER_PATH "\" manifest "
                      "--suite golden 2>/dev/null "
                      "| head -n 1 >/dev/null; "
                      "exit ${PIPESTATUS[0]}'");
    EXPECT_EQ(r.exitCode, 0);
}

TEST(SigPipe, DumpPipedIntoHeadStopsAtTheNextCommit)
{
    // About a hundred short jobs (a few hundred ms of slack for `head`
    // to exit), then three long ones, on one worker: the records reach
    // `head` as they commit, so it exits after the first and the flush
    // of a later short job finds the pipe closed. The dump must stop
    // there, exit 0, and never start the long jobs, which alone
    // outlast the timeout.
    TempDir tmp;
    CmdResult shortJobs = run(runner() + " manifest --suite golden "
                              "--insts 2000 --warmup 500 2>/dev/null");
    ASSERT_EQ(shortJobs.exitCode, 0);
    CmdResult longJobs = run(runner() + " manifest --suite golden "
                             "--insts 20000000 --warmup 500 "
                             "2>/dev/null | head -n 3");
    ASSERT_EQ(longJobs.exitCode, 0);
    std::string jobs;
    for (int i = 0; i < 6; ++i)
        jobs += shortJobs.output;
    std::string manifest = tmp.file("m.jsonl", jobs + longJobs.output);
    std::string err = tmp.path + "/err.txt";
    CmdResult r = run("bash -c 'timeout 10 \"" STSIM_RUNNER_PATH "\" "
                      "dump --manifest \"" + manifest + "\" --jobs 1 "
                      "2>\"" + err + "\" | head -n 1 >/dev/null; "
                      "exit ${PIPESTATUS[0]}'");
    std::ifstream in(err);
    std::string diag((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(r.exitCode, 0) << diag;
    EXPECT_NE(diag.find("dump: stdout consumer closed the pipe"),
              std::string::npos)
        << diag;
}

TEST(WriteFailure, EveryOutputNamesItsPath)
{
    // One rule for every runner output: a write that fails anywhere
    // but a closed stdout pipe is fatal and names the path.
    TempDir tmp;
    std::string manifest = tmp.path + "/m.jsonl";
    CmdResult m = run(runner() + " manifest --suite golden "
                      "--insts 2000 --warmup 500 --out '" + manifest +
                      "' 2>&1");
    ASSERT_EQ(m.exitCode, 0) << m.output;
    for (const std::string &cmd :
         {std::string("manifest --suite golden"),
          "dump --manifest '" + manifest + "'",
          "run --manifest '" + manifest + "' --shard 0/2"}) {
        CmdResult r = run(runner() + " " + cmd +
                          " --out /dev/full 2>&1 >/dev/null");
        const std::string what = cmd.substr(0, cmd.find(' '));
        EXPECT_EQ(r.exitCode, 1) << cmd << ": " << r.output;
        EXPECT_NE(r.output.find("fatal: " + what +
                                ": write to '/dev/full' failed"),
                  std::string::npos)
            << cmd << ": " << r.output;
    }
}

TEST(WriteFailure, MetricsFileWarnsAndKeepsTheExitCode)
{
    // The metrics snapshot is an observation, not a result: a file
    // that cannot be written is a warning naming it, and the command
    // still succeeds.
    TempDir tmp;
    const std::string manifest = tmp.path + "/m.jsonl";
    CmdResult m = run(runner() + " manifest --suite golden "
                      "--insts 2000 --warmup 500 --out '" + manifest +
                      "' 2>&1");
    ASSERT_EQ(m.exitCode, 0) << m.output;
    const std::string metrics = tmp.path + "/missing/m.json";
    CmdResult r = run(runner() + " dump --manifest '" + manifest +
                      "' --metrics '" + metrics + "' 2>&1 >/dev/null");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("cannot write metrics file " + metrics),
              std::string::npos)
        << r.output;
}

TEST(RunTimeout, WatchdogExits124WhenAShardWedges)
{
    // The hang hook stalls the shard after its first committed record
    // -- exactly the wedge --timeout-sec exists for. The watchdog must
    // fire, name itself, and exit 124 (the `timeout(1)` convention).
    TempDir tmp;
    std::string manifest = tmp.path + "/m.jsonl";
    CmdResult m = run(runner() + " manifest --suite golden "
                      "--insts 2000 --warmup 500 --out '" + manifest +
                      "' 2>&1");
    ASSERT_EQ(m.exitCode, 0) << m.output;

    CmdResult r = run("STSIM_TEST_HANG_AFTER_FIRST_RECORD=1 '" +
                      runner() + "' run --manifest '" + manifest +
                      "' --shard 0/4 --jobs 2 --timeout-sec 1 "
                      "--out '" + tmp.path + "/s0.jsonl' "
                      "2>&1 >/dev/null");
    EXPECT_EQ(r.exitCode, 124) << r.output;
    EXPECT_NE(r.output.find("timed out (--timeout-sec watchdog)"),
              std::string::npos)
        << r.output;
}

TEST(RunTimeout, FlagIsRejectedOutsideShardedRun)
{
    // dump is the in-process oracle; it takes no watchdog.
    CmdResult r = run(runner() + " dump --manifest /dev/null "
                      "--timeout-sec 1 2>&1 >/dev/null");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_NE(r.output.find("unknown flag --timeout-sec"),
              std::string::npos)
        << r.output;
}

TEST(RunnerFlags, BadShardAndTimeoutValuesAreUsageErrors)
{
    // Every value is decoded as digits only and bounded by its field:
    // a sign, a trailing letter or a value the field cannot hold is
    // the flag's exit-2 diagnostic, never a wrapped run.
    TempDir tmp;
    struct Case
    {
        std::string args;
        const char *diag;
    };
    const char *shardDiag = "--shard wants I/N with 0 <= I < N";
    for (const Case &c : {
             Case{"run --manifest /dev/null --shard 0/-1", shardDiag},
             Case{"run --manifest /dev/null --shard 1/2x", shardDiag},
             Case{"run --manifest /dev/null --shard +0/2", shardDiag},
             Case{"run --manifest /dev/null --shard 0/2 "
                  "--timeout-sec 4294967296",
                  "bad --timeout-sec '4294967296'"},
             Case{"dispatch --manifest /dev/null --dir '" + tmp.path +
                      "' --timeout-sec 18446744073709552",
                  "bad --timeout-sec '18446744073709552'"},
         }) {
        CmdResult r = run(runner() + " " + c.args + " 2>&1 >/dev/null");
        EXPECT_EQ(r.exitCode, 2) << c.args;
        EXPECT_NE(r.output.find(c.diag), std::string::npos)
            << c.args << ": " << r.output;
    }
}

TEST(RunnerHelp, EveryPublicSubcommandAndFlagIsDocumented)
{
    // The audit the usage text is held to: every subcommand and every
    // public flag any of them accepts must appear in `help` output.
    // (The STSIM_TEST_* hooks and --test-kill-shard/--test-die-after-
    // kill are intentionally undocumented fault-injection backdoors.)
    CmdResult r = run(runner() + " help 2>/dev/null");
    ASSERT_EQ(r.exitCode, 0);
    for (const char *sub :
         {"manifest", "run", "dump", "snapshot", "merge", "report",
          "dispatch", "resume", "serve-worker", "help"}) {
        EXPECT_NE(r.output.find(std::string("stsim_runner ") + sub),
                  std::string::npos)
            << "subcommand missing from usage: " << sub;
    }
    for (const char *flag :
         {"--suite", "--insts", "--warmup", "--depth", "--out",
          "--manifest", "--shard", "--jobs", "--timeout-sec",
          "--format", "--memoize-warmup", "--from-snapshot", "--index",
          "--expect", "--allow-dups", "--dir", "--shards",
          "--max-attempts", "--concurrent", "--retry-backoff-ms",
          "--retry-backoff-cap-ms", "--runner", "--trace",
          "--metrics"}) {
        EXPECT_NE(r.output.find(flag), std::string::npos)
            << "flag missing from usage: " << flag;
    }
}

TEST(SnapshotCmd, FlagValidation)
{
    CmdResult r = run(runner() + " snapshot 2>&1 >/dev/null");
    EXPECT_EQ(r.exitCode, 2);
    EXPECT_NE(r.output.find("--manifest is required"),
              std::string::npos)
        << r.output;

    TempDir tmp;
    std::string manifest = tmp.path + "/m.jsonl";
    CmdResult m = run(runner() + " manifest --suite golden "
                      "--insts 2000 --warmup 500 --out '" + manifest +
                      "' 2>&1");
    ASSERT_EQ(m.exitCode, 0) << m.output;

    CmdResult oor = run(runner() + " snapshot --manifest '" + manifest +
                        "' --index 99 2>&1 >/dev/null");
    EXPECT_EQ(oor.exitCode, 1);
    EXPECT_NE(oor.output.find("fatal: snapshot: --index 99 out of "
                              "range"),
              std::string::npos)
        << oor.output;

    CmdResult excl = run(runner() + " dump --manifest '" + manifest +
                         "' --memoize-warmup --from-snapshot /dev/null "
                         "2>&1 >/dev/null");
    EXPECT_EQ(excl.exitCode, 2);
    EXPECT_NE(excl.output.find("--memoize-warmup and --from-snapshot "
                               "are mutually exclusive"),
              std::string::npos)
        << excl.output;
}

TEST(SnapshotCmd, ForkAndMemoizeAreByteIdenticalToScratch)
{
    // The CLI face of the checkpoint API: a 2-job run-length sweep
    // dumped from scratch, forked from an on-disk snapshot, and
    // memoized must produce identical files.
    TempDir tmp;
    std::string golden = tmp.path + "/golden.jsonl";
    CmdResult m = run(runner() + " manifest --suite golden "
                      "--insts 3000 --warmup 500 --out '" + golden +
                      "' 2>&1");
    ASSERT_EQ(m.exitCode, 0) << m.output;
    std::ifstream in(golden);
    std::string line1;
    ASSERT_TRUE(static_cast<bool>(std::getline(in, line1)));
    // Same job at a second run length: one shared warmup class.
    std::string line2 = line1;
    std::size_t pos = line2.find("\"maxInstructions\":3000");
    ASSERT_NE(pos, std::string::npos) << line2;
    line2.replace(pos, 22, "\"maxInstructions\":2000");
    std::string sweep =
        tmp.file("sweep.jsonl", line1 + "\n" + line2 + "\n");

    std::string snap = tmp.path + "/warm.snap";
    CmdResult s = run(runner() + " snapshot --manifest '" + sweep +
                      "' --out '" + snap + "' 2>&1");
    ASSERT_EQ(s.exitCode, 0) << s.output;

    auto dump = [&](const std::string &extra, const std::string &out) {
        CmdResult d = run(runner() + " dump --manifest '" + sweep +
                          "' " + extra + " --out '" + out + "' 2>&1");
        ASSERT_EQ(d.exitCode, 0) << d.output;
    };
    dump("", tmp.path + "/scratch.jsonl");
    dump("--from-snapshot '" + snap + "'", tmp.path + "/fork.jsonl");
    dump("--memoize-warmup", tmp.path + "/memo.jsonl");

    auto slurp = [](const std::string &p) {
        std::ifstream f(p, std::ios::binary);
        return std::string((std::istreambuf_iterator<char>(f)),
                           std::istreambuf_iterator<char>());
    };
    std::string scratch = slurp(tmp.path + "/scratch.jsonl");
    ASSERT_FALSE(scratch.empty());
    EXPECT_EQ(scratch, slurp(tmp.path + "/fork.jsonl"));
    EXPECT_EQ(scratch, slurp(tmp.path + "/memo.jsonl"));
}

TEST(ManifestCmd, ValidatesOverrides)
{
    struct Case
    {
        const char *args;
        const char *diag;
    };
    for (const Case &c : {
             Case{"--suite fig5 --insts 0", "--insts must be positive"},
             Case{"--suite fig5 --insts -1", "bad --insts '-1'"},
             Case{"--suite fig5 --warmup -1", "bad --warmup '-1'"},
             Case{"--suite fig5 --depth 99", "--depth must lie in [6,32]"},
             Case{"--suite fig5 --depth 5", "--depth must lie in [6,32]"},
             Case{"--suite fig6 --depth 14",
                  "--depth would flatten fig6's pipeline-depth sweep"},
         }) {
        CmdResult r = run(runner() + " manifest " + c.args +
                          " 2>&1 >/dev/null");
        EXPECT_EQ(r.exitCode, 2) << c.args;
        EXPECT_NE(r.output.find(c.diag), std::string::npos)
            << c.args << ": " << r.output;
    }

    // --warmup 0 means no warmup rather than the suite's default.
    CmdResult none = run(runner() + " manifest --suite table1 "
                         "--warmup 0 2>/dev/null");
    ASSERT_EQ(none.exitCode, 0);
    std::istringstream lines(none.output);
    std::string line;
    int n = 0;
    for (; std::getline(lines, line); ++n) {
        EXPECT_NE(line.find("\"warmupInstructions\":0,"),
                  std::string::npos)
            << line;
    }
    EXPECT_EQ(n, 8);

    // The unknown-suite message lists every suite.
    CmdResult bad = run(runner() + " manifest --suite fig2 2>&1");
    EXPECT_EQ(bad.exitCode, 1);
    for (const std::string &name : stsim::suiteNames())
        EXPECT_NE(bad.output.find(name), std::string::npos) << name;
}

namespace
{

/** Dump @p suite at 2K measured / 500 warmup instructions into @p tmp. */
std::vector<std::string>
dumpSuite(const TempDir &tmp, const std::string &suite)
{
    std::string manifest = tmp.path + "/" + suite + ".manifest";
    std::string records = tmp.path + "/" + suite + ".jsonl";
    CmdResult d = run(runner() + " manifest --suite " + suite +
                      " --insts 2000 --warmup 500 --out '" + manifest +
                      "' 2>&1 && '" + runner() + "' dump --manifest '" +
                      manifest + "' --out '" + records + "' 2>&1");
    EXPECT_EQ(d.exitCode, 0) << d.output;
    std::ifstream in(records);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

std::string
joinLines(const std::vector<std::string> &lines)
{
    std::string out;
    for (const std::string &l : lines)
        out += l + "\n";
    return out;
}

} // namespace

TEST(ReportCmd, RejectsRecordsThatAreNotTheSuites)
{
    TempDir tmp;
    const std::vector<std::string> fig5 = dumpSuite(tmp, "fig5");
    ASSERT_EQ(fig5.size(), 64u);

    auto report = [&](const std::string &suite, const std::string &body) {
        std::string file = tmp.file("in.jsonl", body);
        return run(runner() + " report --suite " + suite + " '" + file +
                   "' 2>&1 >/dev/null");
    };
    auto expectFails = [](const CmdResult &r, const char *diag) {
        EXPECT_NE(r.exitCode, 0) << r.output;
        EXPECT_NE(r.output.find(diag), std::string::npos) << r.output;
    };

    // Record 8 is compress/C1; job 8 of fig6 is compress/C2.
    expectFails(report("fig6", joinLines(fig5)),
                "line 9: record 8 is compress/C1, but job 8 of the "
                "suite is compress/C2");

    std::vector<std::string> missing = fig5;
    missing.erase(missing.begin() + 2);
    expectFails(report("fig5", joinLines(missing)),
                "line 3: index 3 where 2 was expected (missing record)");

    std::vector<std::string> dup = fig5;
    dup.insert(dup.begin() + 3, fig5[2]);
    expectFails(report("fig5", joinLines(dup)),
                "line 4: index 2 where 3 was expected (duplicate record)");

    std::vector<std::string> renamed = fig5;
    std::string &line = renamed[9];
    std::size_t pos = line.find("\"experiment\":\"C1\"");
    ASSERT_NE(pos, std::string::npos) << line;
    line.replace(pos, 17, "\"experiment\":\"C2\"");
    expectFails(report("fig5", joinLines(renamed)),
                "line 10: record 9 is gcc/C2, but job 9 of the suite is "
                "gcc/C1");

    const std::string whole = joinLines(fig5);
    expectFails(report("fig5", whole.substr(0, whole.size() -
                                                   fig5.back().size() / 2)),
                "line 64: ");

    std::vector<std::string> short_ = fig5;
    short_.pop_back();
    expectFails(report("fig5", joinLines(short_)),
                "63 records, but the suite has 64 jobs (record 63 is "
                "missing)");

    std::string manifest = tmp.path + "/fig5.manifest";
    CmdResult csv = run(runner() + " dump --manifest '" + manifest +
                        "' --format csv 2>/dev/null | '" + runner() +
                        "' report --suite fig5 2>&1 >/dev/null");
    expectFails(csv, "line 1 is not a JSONL result record");
}

TEST(ReportCmd, RendersAPipedFigure)
{
    CmdResult r = run(runner() + " manifest --suite fig1 --insts 2000 "
                      "--warmup 500 2>/dev/null | '" + runner() +
                      "' dump --manifest /dev/stdin 2>/dev/null | '" +
                      runner() + "' report --suite fig1 2>&1");
    ASSERT_EQ(r.exitCode, 0) << r.output;
    for (const char *text :
         {"Figure 1: oracle fetch/decode/select savings",
          "| oracle-fetch ", "| oracle-decode ", "| oracle-select ",
          "| paper oracle-fetch  | 1.05 "}) {
        EXPECT_NE(r.output.find(text), std::string::npos)
            << text << "\n" << r.output;
    }
}

//
// stsim_serve / stsim_loadgen golden help and diagnostics: their flag
// parsing moved onto common/arg_parse.hh (serve's options block is
// now *generated*), and adopting it must not change one byte.
//

TEST(ServeHelp, GoldenFullText)
{
    const std::string expected =
"usage: stsim_serve (--unix PATH | --tcp PORT) [options]\n"
"\n"
"Serve SimJob requests as JSONL frames; one JSON object per line each\n"
"way. See README 'Serving' for the wire format and error replies.\n"
"\n"
"options:\n"
"  --unix PATH             listen on a Unix stream socket\n"
"  --tcp PORT              listen on 127.0.0.1:PORT (0 = ephemeral;\n"
"                          the bound port is printed on stderr)\n"
"  --jobs N                simulation worker threads (default: STSIM_JOBS\n"
"                          or hardware concurrency)\n"
"  --queue N               admission queue capacity: admitted but\n"
"                          unfinished requests (default 2*jobs+4);\n"
"                          overload => immediate {\"error\":\"busy\"}\n"
"  --default-deadline-ms D deadline for requests that carry none (0 =\n"
"                          unlimited, the default)\n"
"  --max-deadline-ms D     clamp every request's deadline (0 = no clamp)\n"
"  --drain-grace-ms D      on SIGTERM, cancel whatever is still running\n"
"                          this long after the drain starts (default\n"
"                          10000)\n"
"  --max-line-bytes B      request frame size cap (default 1048576)\n"
"  --reply-buffer N        buffered replies per connection before the\n"
"                          reader blocks (default 64)\n"
"  --max-conns N           connection cap (default 256)\n"
"  --max-insts N           per-job instruction cap, warmup and measured\n"
"                          each (default 1000000000; 0 = unlimited)\n"
"  --isolate               run jobs in a supervised fleet of\n"
"                          out-of-process `stsim_runner serve-worker`\n"
"                          subprocesses: a crashing job becomes a\n"
"                          structured reply, never a daemon exit\n"
"  --runner PATH           stsim_runner binary for --isolate (default:\n"
"                          stsim_runner beside this executable)\n"
"  --job-attempts K        worker deaths before a job is answered\n"
"                          {\"error\":\"internal\"} (default 3)\n"
"  --poison-threshold K    consecutive worker kills before a job is\n"
"                          quarantined as {\"error\":\"poison\"}\n"
"                          (default 2)\n"
"  --respawn-base-ms D     worker respawn backoff base (default 50)\n"
"  --respawn-cap-ms D      worker respawn backoff cap (default 5000)\n"
"  --trace FILE            write a Chrome trace_event JSON span trace\n"
"                          of the serving session to FILE on exit\n"
"                          (load it in Perfetto or chrome://tracing)\n"
"  --metrics FILE          write the final metrics-registry snapshot\n"
"                          (one JSONL record) to FILE on exit\n"
"  --stats-interval-sec N  print a one-line stats summary to stderr\n"
"                          every N seconds (0 = off, the default)\n";
    for (const char *flag : {"--help", "-h", "help"}) {
        CmdResult r = run(serveBin() + " " + flag + " 2>/dev/null");
        EXPECT_EQ(r.exitCode, 0) << flag;
        EXPECT_EQ(r.output, expected) << flag;
    }
    // Without an address the same text lands on stderr with exit 2.
    CmdResult noaddr = run(serveBin() + " 2>&1 >/dev/null");
    EXPECT_EQ(noaddr.exitCode, 2);
    EXPECT_EQ(noaddr.output, expected);
}

TEST(ServeDiag, ExactDiagnosticsAndExitCodes)
{
    CmdResult unk = run(serveBin() + " --bogus 2>&1 >/dev/null");
    EXPECT_EQ(unk.exitCode, 2);
    EXPECT_EQ(unk.output.rfind("serve: unknown argument '--bogus'\n"
                               "usage: stsim_serve",
                               0),
              0u)
        << unk.output;

    CmdResult mv = run(serveBin() + " --jobs 2>&1 >/dev/null");
    EXPECT_EQ(mv.exitCode, 1);
    EXPECT_NE(mv.output.find("fatal: serve: --jobs needs a value"),
              std::string::npos)
        << mv.output;

    // A value that wraps or narrows is as bad as one that is not a
    // number. `timeout`: a port that wrapped would serve forever.
    for (const auto &[flag, value] :
         {std::pair{"--tcp", "x"}, {"--tcp", "65536"},
          {"--job-attempts", "4294967296"},
          {"--poison-threshold", "4294967296"}}) {
        CmdResult bad = run("timeout 10 " + serveBin() + " " + flag +
                            " " + value + " 2>&1 >/dev/null");
        EXPECT_EQ(bad.exitCode, 1) << flag << " " << value;
        EXPECT_NE(bad.output.find(std::string("fatal: serve: bad value "
                                              "for ") +
                                  flag + ": '" + value + "'"),
                  std::string::npos)
            << bad.output;
    }

    for (const char *flag : {"--max-line-bytes", "--reply-buffer",
                             "--job-attempts", "--poison-threshold"}) {
        CmdResult z = run(serveBin() + " " + flag +
                          " 0 2>&1 >/dev/null");
        EXPECT_EQ(z.exitCode, 1) << flag;
        EXPECT_NE(z.output.find(std::string("fatal: serve: ") + flag +
                                " must be positive"),
                  std::string::npos)
            << z.output;
    }
}

TEST(LoadgenHelp, GoldenFullText)
{
    const std::string expected =
"usage: stsim_loadgen MODE (--unix PATH | --tcp PORT) [options]\n"
"\n"
"modes: ping | replay | abuse | slow | bench | oneshot | health\n"
"  ping    --tries N (default 100, 100ms apart)\n"
"  replay  --manifest FILE --out FILE [--window N] [--retry N]\n"
"  abuse   --manifest FILE\n"
"  slow    --manifest FILE [--count N] [--delay-ms D]\n"
"  bench   --manifest FILE [--clients N] [--duration-sec S]\n"
"          [--deadline-ms D] [--json FILE]\n"
"          [--retry N] [--tolerate-disconnect]\n"
"  oneshot --manifest FILE [--index I] [--id N] [--deadline-ms D]\n"
"          (prints the reply line on stdout)\n"
"  health  [--id N] (prints the health reply line on stdout)\n"
"\n"
"  --retry N  retry busy/internal replies up to N times per job with\n"
"             exponential backoff; without it busy retries forever\n"
"             and internal is fatal (replay) or tallied (bench)\n";
    for (const char *flag : {"--help", "-h", "help"}) {
        CmdResult r = run(loadgenBin() + " " + flag + " 2>/dev/null");
        EXPECT_EQ(r.exitCode, 0) << flag;
        EXPECT_EQ(r.output, expected) << flag;
    }
}

TEST(LoadgenDiag, ExactDiagnosticsAndExitCodes)
{
    CmdResult unk =
        run(loadgenBin() + " ping --bogus 2>&1 >/dev/null");
    EXPECT_EQ(unk.exitCode, 2);
    EXPECT_EQ(unk.output.rfind("loadgen: unknown argument '--bogus'\n"
                               "usage: stsim_loadgen",
                               0),
              0u)
        << unk.output;

    CmdResult mode = run(loadgenBin() + " wat --tcp 1 2>&1 >/dev/null");
    EXPECT_EQ(mode.exitCode, 2);
    EXPECT_EQ(mode.output.rfind("loadgen: unknown mode 'wat'\n"
                                "usage: stsim_loadgen",
                                0),
              0u)
        << mode.output;

    CmdResult mv = run(loadgenBin() + " ping --tries 2>&1 >/dev/null");
    EXPECT_EQ(mv.exitCode, 1);
    EXPECT_NE(mv.output.find("fatal: loadgen: --tries needs a value"),
              std::string::npos)
        << mv.output;

    for (const auto &[flag, value] :
         {std::pair{"--tries", "-3"}, {"--tries", "4294967296"},
          {"--tcp", "65536"}, {"--duration-sec", "abc"}}) {
        CmdResult bad = run("timeout 10 " + loadgenBin() + " ping " +
                            flag + " " + value + " 2>&1 >/dev/null");
        EXPECT_EQ(bad.exitCode, 1) << flag << " " << value;
        EXPECT_NE(bad.output.find(std::string("fatal: loadgen: bad "
                                              "value for ") +
                                  flag + ": '" + value + "'"),
                  std::string::npos)
            << bad.output;
    }

    // No address given: usage on stderr, exit 2.
    CmdResult noaddr = run(loadgenBin() + " ping 2>&1 >/dev/null");
    EXPECT_EQ(noaddr.exitCode, 2);
    EXPECT_EQ(noaddr.output.rfind("usage: stsim_loadgen", 0), 0u)
        << noaddr.output;
}
