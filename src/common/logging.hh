/**
 * @file
 * gem5-style status/error reporting: panic for simulator bugs, fatal for
 * user errors, warn/inform for non-fatal conditions.
 */

#ifndef STSIM_COMMON_LOGGING_HH
#define STSIM_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace stsim
{

/**
 * Recoverable form of stsim_fatal: thrown instead of exiting while a
 * FatalCaptureScope is active on the calling thread. Long-lived
 * processes (the stsim_serve daemon) use this to turn "user fault"
 * conditions buried in shared code -- malformed serde input, invalid
 * configurations, unknown benchmark/policy names -- into structured
 * error replies instead of process exits. stsim_panic (simulator
 * bugs) is never captured and still aborts.
 */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

/**
 * RAII guard that redirects stsim_fatal on this thread into a thrown
 * FatalError for its lifetime. Nestable; purely thread-local, so one
 * request thread capturing fatals never changes the behavior of any
 * other thread. The default (no active scope) is the historical
 * print-and-exit(1), which every CLI and test relies on.
 */
class FatalCaptureScope
{
  public:
    FatalCaptureScope();
    ~FatalCaptureScope();

    FatalCaptureScope(const FatalCaptureScope &) = delete;
    FatalCaptureScope &operator=(const FatalCaptureScope &) = delete;
};

/**
 * Severity of the non-fatal stderr channels. The active threshold is
 * parsed once from the STSIM_LOG environment variable
 * (debug|info|warn|error, default info): stsim_inform prints at info
 * and below, stsim_warn at warn and below; error silences everything
 * non-fatal. No message is debug-only, so debug prints what info
 * does. Leveled lines carry a monotonic [seconds.millis] timestamp
 * measured from process start so daemon logs interleave meaningfully
 * across threads. Fatal and panic diagnostics are not leveled and keep
 * their historical byte-exact shapes.
 */
enum class LogLevel
{
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3,
};

/** The active threshold (STSIM_LOG, default Info). */
LogLevel logLevel();

/** Whether a message at `lvl` would be printed. */
inline bool
logEnabled(LogLevel lvl)
{
    return static_cast<int>(lvl) >= static_cast<int>(logLevel());
}

namespace detail
{
/** Print a tagged message to stderr; never returns for fatal severities. */
[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** Minimal printf-style formatter into a std::string. */
std::string formatStr(const char *fmt, ...) __attribute__((format(printf, 1, 2)));
} // namespace detail

/**
 * Abort on an internal invariant violation (a simulator bug): something
 * that should never happen regardless of user input.
 */
#define stsim_panic(...) \
    ::stsim::detail::panicImpl(__FILE__, __LINE__, \
                               ::stsim::detail::formatStr(__VA_ARGS__))

/**
 * Exit on a condition that is the user's fault (bad configuration,
 * invalid arguments) rather than a simulator bug.
 */
#define stsim_fatal(...) \
    ::stsim::detail::fatalImpl(__FILE__, __LINE__, \
                               ::stsim::detail::formatStr(__VA_ARGS__))

/** Alert the user to a suspicious but survivable condition. */
#define stsim_warn(...) \
    ::stsim::detail::warnImpl(::stsim::detail::formatStr(__VA_ARGS__))

/** Informative status message. */
#define stsim_inform(...) \
    ::stsim::detail::informImpl(::stsim::detail::formatStr(__VA_ARGS__))

/** Panic unless a simulator invariant holds. */
#define stsim_assert(cond, ...) \
    do { \
        if (!(cond)) { \
            ::stsim::detail::panicImpl(__FILE__, __LINE__, \
                std::string("assertion failed: " #cond " ") + \
                ::stsim::detail::formatStr(__VA_ARGS__)); \
        } \
    } while (0)

/**
 * Per-instruction invariant check: active in debug builds, compiled
 * out under NDEBUG. stsim_assert stays on in release builds, which is
 * right for once-per-run or once-per-event checks, but a check inside
 * the fetch/dispatch/issue/writeback/commit per-instruction loops is
 * measurable at whole-simulation throughput; those use this tier.
 */
#ifdef NDEBUG
#define stsim_dbg_assert(cond, ...) \
    do { \
    } while (0)
#else
#define stsim_dbg_assert(cond, ...) stsim_assert(cond, __VA_ARGS__)
#endif

} // namespace stsim

#endif // STSIM_COMMON_LOGGING_HH
