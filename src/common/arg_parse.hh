/**
 * @file
 * One typed flag-parsing API for every CLI binary (stsim_runner,
 * stsim_serve, stsim_loadgen). Each binary used to hand-roll the same
 * loop -- strcmp chains, a "needs a value" cursor, strtoull with an
 * end-pointer check -- three times, with three slightly different
 * diagnostic styles. FlagSet centralizes the mechanics (flag matching,
 * value consumption, typed decoding, required/default handling, usage
 * generation) while the diagnostics stay per-binary through the Diag
 * hooks, so adopting it changes NO observable byte: help output and
 * exit-2 diagnostics are asserted verbatim in tests/test_runner_cli.cc.
 *
 * Defaults are the initializers of the bound targets (an Options
 * struct); required flags are enforced after parse() via seen()
 * (each binary keeps its exact historical "X is required" message).
 */

#ifndef STSIM_COMMON_ARG_PARSE_HH
#define STSIM_COMMON_ARG_PARSE_HH

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace stsim
{
namespace args
{

/**
 * Decode a decimal unsigned value no larger than @p max. Digits only:
 * strtoull would wrap "-1" (or " -1") to 2^64-1, so an empty, signed
 * or space-led value fails, as does one out of range or above @p max
 * (which a cast to the flag's type would narrow).
 */
inline std::optional<std::uint64_t>
decodeU64(const char *s,
          std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    if (*s < '0' || *s > '9')
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (*end != '\0' || errno == ERANGE || v > max)
        return std::nullopt;
    return v;
}

/** One slice of a manifest split N ways: the jobs whose index % count
 *  is index. */
struct Shard
{
    std::uint64_t index = 0;
    std::uint64_t count = 1;
};

/**
 * Decode a `--shard I/N` value: two decodeU64 values around one '/',
 * with I < N (so N > 0). A missing or second '/', or a side that is
 * not digits only, fails.
 */
inline std::optional<Shard>
decodeShard(const char *s)
{
    const std::string_view v(s);
    const std::size_t slash = v.find('/');
    if (slash == std::string_view::npos)
        return std::nullopt;
    std::optional<std::uint64_t> i =
        decodeU64(std::string(v.substr(0, slash)).c_str());
    std::optional<std::uint64_t> n = decodeU64(s + slash + 1);
    if (!i || !n || *i >= *n)
        return std::nullopt;
    return Shard{*i, *n};
}

/**
 * Per-binary diagnostic style. Every hook must not return (exit, or
 * stsim_fatal). Decoding is shared -- a numeric value that would wrap
 * or narrow is a bad value in every binary -- so only the messages
 * differ.
 */
struct Diag
{
    /** A value-taking flag was last on the command line. */
    std::function<void(const char *flag)> missingValue;

    /** An argument matched no registered flag (nor a positional). */
    std::function<void(const char *arg)> unknown;

    /** @p value does not decode as @p flag's type. */
    std::function<void(const char *flag, const char *value)> badValue;

    /** A u64Positive flag decoded to zero (optional). */
    std::function<void(const char *flag)> notPositive;
};

/** Typed flag registry + parser + usage-text generator. */
class FlagSet
{
  public:
    explicit FlagSet(Diag diag) : diag_(std::move(diag)) {}

    /**
     * Lowest-level registration: @p apply receives the raw value.
     * @p metavar empty means the flag takes no value (apply gets "").
     * @p help is the flag's optionsText() entry, '\n'-separated
     * continuation lines; empty help keeps the flag out of the text
     * (the runner's synopsis-style usage documents flags itself).
     */
    FlagSet &
    flag(const char *name, const char *metavar,
         std::function<void(const char *value)> apply,
         const char *help = "")
    {
        flags_.push_back(Entry{name, metavar, help, std::move(apply),
                               metavar[0] != '\0', false});
        return *this;
    }

    /** Value-less flag. */
    FlagSet &
    boolean(const char *name, std::function<void()> apply,
            const char *help = "")
    {
        auto fn = std::move(apply);
        return flag(name, "",
                    [fn = std::move(fn)](const char *) { fn(); }, help);
    }

    /** Value-less flag that just sets @p *out. */
    FlagSet &
    boolean(const char *name, bool *out, const char *help = "")
    {
        return boolean(name, [out] { *out = true; }, help);
    }

    /** String flag. */
    FlagSet &
    str(const char *name, const char *metavar, std::string *out,
        const char *help = "")
    {
        return flag(name, metavar,
                    [out](const char *v) { *out = v; }, help);
    }

    /**
     * Decode @p value for @p flag (decodeU64, at most @p max) or
     * report it through Diag::badValue. For flags whose apply does
     * more than store the number.
     */
    std::uint64_t
    u64Value(const char *flag, const char *value, std::uint64_t max) const
    {
        std::optional<std::uint64_t> v = decodeU64(value, max);
        if (!v)
            diag_.badValue(flag, value);
        return v.value_or(0);
    }

    /** Unsigned flag no larger than the target type's maximum. */
    template <typename T>
    FlagSet &
    u64(const char *name, const char *metavar, T *out,
        const char *help = "")
    {
        return flag(name, metavar,
                    [this, out, name](const char *v) {
                        *out = static_cast<T>(
                            u64Value(name, v, maxOf(out)));
                    },
                    help);
    }

    /** Like u64 but zero routes to Diag::notPositive. */
    template <typename T>
    FlagSet &
    u64Positive(const char *name, const char *metavar, T *out,
                const char *help = "")
    {
        return flag(name, metavar,
                    [this, out, name](const char *v) {
                        std::uint64_t u = u64Value(name, v, maxOf(out));
                        if (u == 0)
                            diag_.notPositive(name);
                        *out = static_cast<T>(u);
                    },
                    help);
    }

    /** Double flag: a finite number above zero, else a bad value. */
    FlagSet &
    dblPositive(const char *name, const char *metavar, double *out,
                const char *help = "")
    {
        return flag(name, metavar,
                    [this, out, name](const char *v) {
                        char *end = nullptr;
                        double d = std::strtod(v, &end);
                        if (end == v || *end != '\0' ||
                            !std::isfinite(d) || d <= 0)
                            diag_.badValue(name, v);
                        *out = d;
                    },
                    help);
    }

    /** Whether @p name was given (for caller-side required checks). */
    bool
    seen(const char *name) const
    {
        for (const Entry &e : flags_) {
            if (e.name == name)
                return e.seen;
        }
        return false;
    }

    /**
     * Parse argv[from..argc). An argument matching no flag goes to
     * @p positional when that is set and the argument does not start
     * with '-'; everything else unmatched routes to Diag::unknown.
     */
    void
    parse(int argc, char **argv, int from,
          const std::function<void(const char *arg)> &positional = {})
    {
        for (int i = from; i < argc; ++i) {
            const char *a = argv[i];
            Entry *e = match(a);
            if (!e) {
                if (positional && a[0] != '-') {
                    positional(a);
                    continue;
                }
                diag_.unknown(a);
                return; // unknown() must not return; appease flow
            }
            e->seen = true;
            const char *value = "";
            if (e->takesValue) {
                if (i + 1 >= argc) {
                    diag_.missingValue(e->name.c_str());
                    return;
                }
                value = argv[++i];
            }
            e->apply(value);
        }
    }

    /**
     * The aligned options block of a --help text: two-space indent,
     * "NAME METAVAR" padded so help starts at column 26, continuation
     * lines indented to the same column. Flags registered with empty
     * help are omitted. Byte-compatible with the hand-written blocks
     * it replaced (asserted golden in tests/test_runner_cli.cc).
     */
    std::string
    optionsText() const
    {
        constexpr std::size_t kHelpCol = 26;
        std::string out;
        for (const Entry &e : flags_) {
            if (e.help.empty())
                continue;
            std::string head = "  " + e.name;
            if (!e.metavar.empty())
                head += " " + e.metavar;
            if (head.size() < kHelpCol)
                head.append(kHelpCol - head.size(), ' ');
            else
                head.push_back(' ');
            std::size_t start = 0;
            bool first = true;
            while (start <= e.help.size()) {
                std::size_t nl = e.help.find('\n', start);
                std::string_view lineView(e.help);
                std::string line(lineView.substr(
                    start, nl == std::string::npos ? std::string::npos
                                                   : nl - start));
                if (first)
                    out += head + line + "\n";
                else
                    out += std::string(kHelpCol, ' ') + line + "\n";
                first = false;
                if (nl == std::string::npos)
                    break;
                start = nl + 1;
            }
        }
        return out;
    }

  private:
    struct Entry
    {
        std::string name;
        std::string metavar;
        std::string help;
        std::function<void(const char *value)> apply;
        bool takesValue;
        bool seen;
    };

    /** The largest value a u64 target holds (an optional: its value's). */
    template <typename T>
    static constexpr std::uint64_t
    maxOf(const T *)
    {
        return std::numeric_limits<T>::max();
    }

    template <typename T>
    static constexpr std::uint64_t
    maxOf(const std::optional<T> *)
    {
        return std::numeric_limits<T>::max();
    }

    Entry *
    match(const char *arg)
    {
        for (Entry &e : flags_) {
            if (e.name == arg)
                return &e;
        }
        return nullptr;
    }

    Diag diag_;
    std::vector<Entry> flags_;
};

} // namespace args
} // namespace stsim

#endif // STSIM_COMMON_ARG_PARSE_HH
