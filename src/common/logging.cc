#include "logging.hh"

#include <chrono>
#include <cstdarg>
#include <cstring>
#include <vector>

namespace stsim
{

namespace
{
/**
 * Depth of active FatalCaptureScopes on this thread. Nonzero turns
 * stsim_fatal into a throw; zero keeps the historical exit(1).
 */
thread_local int fatalCaptureDepth = 0;

/** Timestamp base for leveled log lines (process start, roughly). */
const std::chrono::steady_clock::time_point logStart =
    std::chrono::steady_clock::now();

double
monotonicSeconds()
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         logStart)
        .count();
}

LogLevel
parseLogLevel()
{
    const char *env = std::getenv("STSIM_LOG");
    if (!env)
        return LogLevel::Info;
    if (std::strcmp(env, "debug") == 0)
        return LogLevel::Debug;
    if (std::strcmp(env, "info") == 0)
        return LogLevel::Info;
    if (std::strcmp(env, "warn") == 0)
        return LogLevel::Warn;
    if (std::strcmp(env, "error") == 0)
        return LogLevel::Error;
    std::fprintf(stderr, "warn: unknown STSIM_LOG level '%s' "
                 "(want debug|info|warn|error); using info\n", env);
    return LogLevel::Info;
}
} // namespace

LogLevel
logLevel()
{
    static const LogLevel level = parseLogLevel();
    return level;
}

FatalCaptureScope::FatalCaptureScope()
{
    ++fatalCaptureDepth;
}

FatalCaptureScope::~FatalCaptureScope()
{
    --fatalCaptureDepth;
}

namespace detail
{

std::string
formatStr(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list copy;
    va_copy(copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    if (needed < 0) {
        va_end(args);
        return fmt;
    }
    std::vector<char> buf(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    va_end(args);
    return std::string(buf.data(), static_cast<std::size_t>(needed));
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    if (fatalCaptureDepth > 0)
        throw FatalError(msg);
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    if (!logEnabled(LogLevel::Warn))
        return;
    std::fprintf(stderr, "[%10.3f] warn: %s\n", monotonicSeconds(),
                 msg.c_str());
}

void
informImpl(const std::string &msg)
{
    if (!logEnabled(LogLevel::Info))
        return;
    std::fprintf(stderr, "[%10.3f] info: %s\n", monotonicSeconds(),
                 msg.c_str());
}

} // namespace detail
} // namespace stsim
