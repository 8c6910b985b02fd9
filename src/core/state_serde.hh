/**
 * @file
 * The uniform simulator checkpoint API: StateWriter/StateReader, a
 * versioned, tagged, line-based text format, and StateIO, the one walk
 * over a component's state that both saving and restoring run
 * (Core, caches, predictors, confidence estimators, throttle
 * controller, power model, workload RNG).
 *
 * Design points, in the order they matter:
 *
 *  - **Bit-exact.** Doubles use the same C99 hex-float convention as
 *    job_serde ("%a" / strtod), so a restored simulator replays the
 *    measured phase to byte-identical SimResults. That property is the
 *    snapshot gate (`scripts/snapshot_equivalence.sh`).
 *  - **Strict and self-describing.** A snapshot is a `stsim-state 1`
 *    header, nested `[section]` ... `[/section]` groups, in-order
 *    `key value...` lines, and a final `end` marker. The reader
 *    demands exactly the structure the writer produced: a wrong key,
 *    a missing section, or a truncated file is an immediate
 *    stsim_fatal naming the line -- never a silently wrong simulator.
 *  - **One list per component.** Each component implements
 *    `state(StateIO &)`, which names every field, its key and its load
 *    bound once; the same list saves and restores. On restore every
 *    integer is bounded by its field's type (or a tighter bound the
 *    list gives) and every array whose length the configuration fixes
 *    must have that length, so an untrusted image cannot narrow, wrap
 *    or overrun a field. Composition mirrors ownership (the Simulator
 *    walks one section per subsystem).
 *  - **Versioned.** The header carries a format version; readers
 *    reject snapshots from a different version rather than guess.
 */

#ifndef STSIM_CORE_STATE_SERDE_HH
#define STSIM_CORE_STATE_SERDE_HH

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/sat_counter.hh"

namespace stsim
{
namespace serde
{

/** Current snapshot format version (the `stsim-state N` header). */
constexpr unsigned kStateFormatVersion = 1;

/**
 * Serializes simulator state into the snapshot text format. Purely
 * appending; take() hands over the finished image (header + sections +
 * end marker).
 */
class StateWriter
{
  public:
    StateWriter();

    /** Open / close a tagged section. Sections nest. */
    void begin(const char *section);
    void end(const char *section);

    void
    u64(const char *key, std::uint64_t v)
    {
        char buf[22];
        buf[0] = ' ';
        char *p = std::to_chars(buf + 1, std::end(buf), v).ptr;
        *p++ = '\n';
        out_ += key;
        out_.append(buf, static_cast<std::size_t>(p - buf));
    }
    void boolean(const char *key, bool v);
    /** Hex-float ("%a"), bit-exact round trip. */
    void dbl(const char *key, double v);
    /** Rest-of-line string; must not contain newlines. */
    void str(const char *key, std::string_view v);

    /** `key N v1 .. vN` on one line. */
    void
    u64Array(const char *key, const std::uint64_t *v, std::size_t n)
    {
        u64Vec(key, std::span(v, n));
    }
    void dblArray(const char *key, const double *v, std::size_t n);

    /**
     * `key N v1 .. vN`, value i being @p get of element i of @p v,
     * formatted as it is read into a stack buffer that is appended
     * whenever it fills (no copy of the array).
     */
    template <typename Range, typename Get = std::identity>
    void
    u64Vec(const char *key, const Range &v, Get get = {})
    {
        out_ += key;
        char buf[4096];
        char *p = buf;
        auto put = [&](std::uint64_t x) {
            if (std::end(buf) - p < 22) { // ' ', 20 digits, '\n'
                out_.append(buf, static_cast<std::size_t>(p - buf));
                p = buf;
            }
            *p++ = ' ';
            p = std::to_chars(p, std::end(buf), x).ptr;
        };
        put(std::size(v));
        for (const auto &x : v)
            put(static_cast<std::uint64_t>(std::invoke(get, x)));
        *p++ = '\n';
        out_.append(buf, static_cast<std::size_t>(p - buf));
    }

    /** Finish the image: appends the end marker and returns the text. */
    std::string take();

  private:
    std::string out_;
    std::vector<std::string> stack_; ///< open sections, for validation
};

/**
 * Strict sequential reader over a snapshot image. Every accessor
 * names the key it expects; any mismatch, type error, or premature end
 * of input fatals with the offending line. Call finish() after the
 * last section to verify the end marker (truncation detection).
 */
class StateReader
{
  public:
    /** u64Array's count for an array whose length the image sets. */
    static constexpr std::size_t kAnyCount = SIZE_MAX;

    /** Validates the `stsim-state N` header; fatals on mismatch. */
    explicit StateReader(std::string_view image);

    void begin(const char *section);
    void end(const char *section);

    std::uint64_t u64(const char *key);
    /**
     * As above, but fatals unless the value is at most @p max, so a
     * loader may narrow it into its field without wrapping it.
     */
    std::uint64_t u64(const char *key, std::uint64_t max);
    bool boolean(const char *key);
    double dbl(const char *key);
    std::string str(const char *key);

    /** Reads `key N v1 .. vN`; returns the N values. */
    std::vector<std::uint64_t> u64Vec(const char *key);
    std::vector<double> dblVec(const char *key);

    /**
     * Reads `key N v1 .. vN` into a buffer the next call reuses: fatal
     * unless every value is at most @p max, so a loader may narrow them
     * into its fields, and, for an array whose length the configuration
     * (or a sibling array) fixes, unless N == @p n, so it may index its
     * tables with them. @p n is kAnyCount when the image sets N.
     */
    std::span<const std::uint64_t> u64Array(const char *key, std::size_t n,
                                            std::uint64_t max);
    /** As dblVec(key), fatal unless it holds exactly @p n values. */
    std::vector<double> dblVec(const char *key, std::size_t n);

    /** Expect the end marker and end of input. */
    void finish();

  private:
    /** Next line, or fatal on truncation. */
    std::string_view line(const char *wantKey);
    /** Split `key rest`; fatal unless key matches. */
    std::string_view value(const char *key);
    [[noreturn]] void fail(const char *what, std::string_view got);
    /** Fatal unless the array just read has @p want values. */
    void expectCount(const char *key, std::size_t got, std::size_t want);

    std::string_view image_;
    std::size_t pos_ = 0;
    std::size_t lineNo_ = 1; ///< 1-based line of the *next* line
    std::vector<std::uint64_t> values_; ///< u64Array's buffer
};

/**
 * One walk over a component's state that saving and restoring share.
 * A component's `state(StateIO &io)` calls, in image order, one member
 * per field with the field itself: on save each call writes the field
 * and changes nothing; on load it reads the image into the field,
 * fatal unless the value fits the field's type -- or the tighter
 * @p max the list gives -- and, for an array whose length the
 * configuration fixes, unless the image holds exactly that many
 * values. Steps only a restore needs (rebuilding derived structures,
 * checks across fields) run under loading().
 */
class StateIO
{
    /** The type of the field @p Proj selects of an element of @p C. */
    template <typename C, typename Proj = std::identity>
    using ValueOf = std::remove_cvref_t<std::invoke_result_t<
        Proj &, decltype(*std::begin(std::declval<C &>()))>>;

    /** The largest value a field of type @p T holds. */
    template <typename T>
    static constexpr std::uint64_t
    maxOf()
    {
        if constexpr (std::is_enum_v<T>) {
            return maxOf<std::underlying_type_t<T>>();
        } else {
            static_assert(std::is_unsigned_v<T>, "fields are unsigned");
            return std::numeric_limits<T>::max();
        }
    }

  public:
    explicit StateIO(StateWriter &w) : w_(&w) {}
    explicit StateIO(StateReader &r) : r_(&r) {}

    /** True when the walk restores the machine. */
    bool loading() const { return r_ != nullptr; }

    void begin(const char *section);
    void end(const char *section);

    /** An unsigned integer or enum field. */
    template <typename T>
    void
    u64(const char *key, T &v, std::uint64_t max = maxOf<T>())
    {
        if (w_)
            w_->u64(key, static_cast<std::uint64_t>(v));
        else
            v = static_cast<T>(r_->u64(key, max));
    }

    void boolean(const char *key, bool &v);
    void dbl(const char *key, double &v);
    void str(const char *key, std::string &v);

    /** An array whose length the configuration fixes: @p c itself. */
    template <typename C>
        requires(!std::is_floating_point_v<ValueOf<C>>)
    void
    fixed(const char *key, C &c, std::uint64_t max = maxOf<ValueOf<C>>())
    {
        column(key, c, std::identity{}, max);
    }

    /** As above, for an array of doubles. */
    template <typename C>
        requires std::is_floating_point_v<ValueOf<C>>
    void
    fixed(const char *key, C &c)
    {
        if (w_) {
            w_->dblArray(key, std::data(c), std::size(c));
        } else {
            const std::vector<double> v = r_->dblVec(key, std::size(c));
            std::copy(v.begin(), v.end(), std::begin(c));
        }
    }

    /**
     * One column of a table whose length the configuration fixes: the
     * field @p proj selects (a member pointer, or a callable returning
     * a reference) of each element of @p c.
     */
    template <typename C, typename Proj>
    void
    column(const char *key, C &c, Proj proj,
           std::uint64_t max = maxOf<ValueOf<C, Proj>>())
    {
        array<false>(key, c, max, proj, assignThrough(proj));
    }

    /** An array whose length the image sets. */
    template <typename T>
    void
    vec(const char *key, std::vector<T> &v, std::uint64_t max = maxOf<T>())
    {
        vec(key, v, std::identity{}, max);
    }

    /** The field @p proj selects of each element of @p v, whose length
     *  the image sets. */
    template <typename T, typename Proj>
        requires std::invocable<Proj &, T &>
    void
    vec(const char *key, std::vector<T> &v, Proj proj,
        std::uint64_t max = maxOf<ValueOf<std::vector<T>, Proj>>())
    {
        array<true>(key, v, max, proj, assignThrough(proj));
    }

    /**
     * An array of values that are no field of their own, one per
     * element of @p c (whose length the configuration fixes): @p get
     * computes element x's value, at most @p max; @p set stores value
     * v back into x.
     */
    template <typename C, typename Get, typename Set>
    void
    each(const char *key, C &c, std::uint64_t max, Get get, Set set)
    {
        array<false>(key, c, max, get, set);
    }

    /** A table of saturating counters, bounded by their width. */
    void
    counters(const char *key, std::vector<SatCounter> &c)
    {
        each(
            key, c, c.front().maxValue(),
            [](const SatCounter &x) { return x.value(); },
            [](SatCounter &x, std::uint64_t v) {
                x.set(static_cast<unsigned>(v));
            });
    }

  private:
    /** The setter that stores a value through projection @p proj. */
    template <typename Proj>
    static auto
    assignThrough(Proj proj)
    {
        return [proj](auto &x, std::uint64_t v) {
            auto &field = std::invoke(proj, x);
            field = static_cast<std::remove_cvref_t<decltype(field)>>(v);
        };
    }

    /** `key N v1 .. vN` over @p c; with @p kSized the image sets N. */
    template <bool kSized, typename C, typename Get, typename Set>
    void
    array(const char *key, C &c, std::uint64_t max, Get get, Set set)
    {
        if (w_) {
            w_->u64Vec(key, c, get);
            return;
        }
        const std::span<const std::uint64_t> v = r_->u64Array(
            key, kSized ? StateReader::kAnyCount : std::size(c), max);
        if constexpr (kSized)
            c.resize(v.size());
        auto it = std::begin(c);
        for (std::uint64_t x : v)
            set(*it++, x);
    }

    StateWriter *w_ = nullptr;
    StateReader *r_ = nullptr;
};

} // namespace serde
} // namespace stsim

#endif // STSIM_CORE_STATE_SERDE_HH
