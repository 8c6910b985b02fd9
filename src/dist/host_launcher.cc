#include "host_launcher.hh"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.hh"

namespace stsim
{
namespace dist
{

HostLauncher::~HostLauncher() = default;

std::uint64_t
backoffDelayMs(unsigned stage, std::uint64_t baseMs,
               std::uint64_t capMs, std::uint64_t seed)
{
    if (stage == 0 || baseMs == 0)
        return 0;
    // Capped exponential: base << (stage-1), saturating well before
    // the shift could overflow.
    unsigned shift = stage - 1 > 20 ? 20 : stage - 1;
    std::uint64_t exp = baseMs << shift;
    if (exp > capMs || (exp >> shift) != baseMs)
        exp = capMs;
    // Deterministic jitter in [0, baseMs]: FNV-1a over (seed, stage).
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    mix(seed);
    mix(stage);
    return exp + h % (baseMs + 1);
}

std::string
describeWaitStatus(int status)
{
    if (WIFEXITED(status))
        return "exit " + std::to_string(WEXITSTATUS(status));
    if (WIFSIGNALED(status))
        return "signal " + std::to_string(WTERMSIG(status));
    return "status " + std::to_string(status);
}

namespace
{

/** @p path, once it names an executable; @p who prefixes the error. */
std::string
executableRunner(const char *who, std::string path)
{
    if (::access(path.c_str(), X_OK) != 0) {
        stsim_fatal("%s: '%s' is not an executable runner (%s)", who,
                    path.c_str(), std::strerror(errno));
    }
    return path;
}

/**
 * fork + exec of @p argv (argv[0] is the runner). The child first
 * moves @p stdinFd / @p stdoutFd onto its stdio when they are >= 0
 * and sets @p env to "1" when it is non-null. @p who prefixes the
 * error messages.
 */
pid_t
spawnRunner(const char *who, std::vector<const char *> argv, int stdinFd,
            int stdoutFd, const char *env)
{
    argv.push_back(nullptr);
    pid_t pid = ::fork();
    if (pid < 0)
        stsim_fatal("%s: fork failed (%s)", who, std::strerror(errno));
    if (pid == 0) {
        // Child. Only the single-threaded dispatcher passes @p env,
        // so mutating the environment between fork and exec is safe.
        if (stdinFd >= 0)
            ::dup2(stdinFd, STDIN_FILENO);
        if (stdoutFd >= 0)
            ::dup2(stdoutFd, STDOUT_FILENO);
        if (env)
            ::setenv(env, "1", 1);
        ::execv(argv[0], const_cast<char *const *>(argv.data()));
        std::fprintf(stderr, "%s: exec '%s' failed: %s\n", who, argv[0],
                     std::strerror(errno));
        ::_exit(127);
    }
    return pid;
}

/** A reaped child: whether it exited 0, and its wait status text. */
struct Reaped
{
    bool clean;
    std::string text; ///< "exit N" / "signal N" / "waitpid: <error>"
};

/** Nonblocking waitpid on @p pid; nullopt while it still runs. A failed
 *  wait (ECHILD: someone else reaped it) reports the child as gone. */
std::optional<Reaped>
tryReap(pid_t pid)
{
    int status = 0;
    pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == 0)
        return std::nullopt;
    if (r < 0)
        return Reaped{false,
                      std::string("waitpid: ") + std::strerror(errno)};
    return Reaped{WIFEXITED(status) && WEXITSTATUS(status) == 0,
                  describeWaitStatus(status)};
}

} // namespace

LocalProcessLauncher::LocalProcessLauncher(std::string runnerPath)
    : runner_(executableRunner("launcher", std::move(runnerPath)))
{
}

std::string
LocalProcessLauncher::selfExecutable()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n <= 0) {
        stsim_fatal("launcher: cannot resolve /proc/self/exe (%s); "
                    "pass --runner PATH",
                    std::strerror(errno));
    }
    buf[n] = '\0';
    return buf;
}

void
LocalProcessLauncher::launch(const ShardTask &task)
{
    stsim_assert(!pids_.count(task.shard),
                 "launcher: shard %" PRIu64 " already running",
                 task.shard);

    char shardSpec[48];
    std::snprintf(shardSpec, sizeof shardSpec,
                  "%" PRIu64 "/%" PRIu64, task.shard, task.shards);
    char jobsSpec[24];
    std::snprintf(jobsSpec, sizeof jobsSpec, "%u", task.workers);

    std::vector<const char *> argv = {
        runner_.c_str(),  "run",
        "--manifest",     task.manifest.c_str(),
        "--shard",        shardSpec,
        "--out",          task.outPath.c_str(),
    };
    if (task.workers) {
        argv.push_back("--jobs");
        argv.push_back(jobsSpec);
    }

    const char *env =
        task.testHangAfterFirstRecord ? kTestHangEnv : nullptr;
    pids_.emplace(task.shard,
                  spawnRunner("launcher", std::move(argv), -1, -1, env));
}

std::optional<ShardExit>
LocalProcessLauncher::waitAny(std::chrono::milliseconds timeout)
{
    stsim_assert(!pids_.empty(), "launcher: waitAny with none running");
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    for (;;) {
        for (auto it = pids_.begin(); it != pids_.end(); ++it) {
            std::optional<Reaped> done = tryReap(it->second);
            if (!done)
                continue;
            ShardExit ex;
            ex.shard = it->first;
            ex.success = done->clean;
            if (!ex.success)
                ex.reason = std::move(done->text);
            pids_.erase(it);
            return ex;
        }
        if (std::chrono::steady_clock::now() >= deadline)
            return std::nullopt;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

void
LocalProcessLauncher::kill(std::uint64_t shard)
{
    auto it = pids_.find(shard);
    if (it == pids_.end())
        return; // already reaped: the kill raced a normal exit
    ::kill(it->second, SIGKILL);
    // The exit is reported through waitAny like any other death, so
    // the scheduler journals exactly one terminal record per attempt.
}

WorkerLauncher::~WorkerLauncher() = default;

LocalWorkerLauncher::LocalWorkerLauncher(std::string runnerPath)
    : runner_(executableRunner("fleet", std::move(runnerPath)))
{
}

WorkerProcess
LocalWorkerLauncher::launch()
{
    int inPipe[2];  // parent writes jobs -> worker stdin
    int outPipe[2]; // worker stdout -> parent reads replies
    // CLOEXEC everywhere: a worker forked later must not inherit this
    // one's pipe ends, or closing our copy would never deliver EOF.
    // dup2 onto stdio below clears the flag on the child's own ends.
    if (::pipe2(inPipe, O_CLOEXEC) != 0 ||
        ::pipe2(outPipe, O_CLOEXEC) != 0)
        stsim_fatal("fleet: pipe failed (%s)", std::strerror(errno));

    pid_t pid = spawnRunner("fleet", {runner_.c_str(), "serve-worker"},
                            inPipe[0], outPipe[1], nullptr);
    ::close(inPipe[0]);
    ::close(outPipe[1]);
    // Nonblocking reads so the supervisor can poll() the whole fleet;
    // job writes stay blocking (one small line, pipe never fills).
    int fl = ::fcntl(outPipe[0], F_GETFL, 0);
    ::fcntl(outPipe[0], F_SETFL, fl | O_NONBLOCK);

    WorkerProcess w;
    w.pid = pid;
    w.stdinFd = inPipe[1];
    w.stdoutFd = outPipe[0];
    return w;
}

void
LocalWorkerLauncher::kill(pid_t pid)
{
    if (pid > 0)
        ::kill(pid, SIGKILL);
}

bool
LocalWorkerLauncher::reap(pid_t pid, std::string &statusText)
{
    std::optional<Reaped> done = tryReap(pid);
    if (!done)
        return false;
    statusText = std::move(done->text);
    return true;
}

} // namespace dist
} // namespace stsim
