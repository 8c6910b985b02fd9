/**
 * @file
 * The uniform simulator checkpoint API: StateWriter/StateReader, a
 * versioned, tagged, line-based text format every stateful component
 * serializes itself through (Core, caches, predictors, confidence
 * estimators, throttle controller, power model, workload RNG).
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
 *  - **Versioned.** The header carries a format version; readers
 *    reject snapshots from a different version rather than guess.
 *
 * Components implement `saveState(StateWriter &) const` and
 * `loadState(StateReader &)`; composition mirrors ownership (the
 * Simulator writes one section per subsystem).
 */

#ifndef STSIM_CORE_STATE_SERDE_HH
#define STSIM_CORE_STATE_SERDE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

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

    void u64(const char *key, std::uint64_t v);
    void i64(const char *key, std::int64_t v);
    void boolean(const char *key, bool v);
    /** Hex-float ("%a"), bit-exact round trip. */
    void dbl(const char *key, double v);
    /** Rest-of-line string; must not contain newlines. */
    void str(const char *key, std::string_view v);

    /** `key N v1 .. vN` on one line. */
    void u64Array(const char *key, const std::uint64_t *v, std::size_t n);
    void dblArray(const char *key, const double *v, std::size_t n);

    template <typename Vec>
    void
    u64Vec(const char *key, const Vec &v)
    {
        out_ += key;
        out_ += ' ';
        out_ += std::to_string(v.size());
        for (const auto &x : v) {
            out_ += ' ';
            out_ += std::to_string(static_cast<std::uint64_t>(x));
        }
        out_ += '\n';
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
    std::int64_t i64(const char *key);
    bool boolean(const char *key);
    double dbl(const char *key);
    std::string str(const char *key);

    /** Reads `key N v1 .. vN`; returns the N values. */
    std::vector<std::uint64_t> u64Vec(const char *key);
    std::vector<double> dblVec(const char *key);

    /**
     * As above, for an array whose length the configuration (or a
     * sibling array) fixes: fatals unless N == @p n, so a loader may
     * index its tables with the result, and unless every value is at
     * most @p max, so it may narrow them into its fields.
     */
    std::vector<std::uint64_t> u64Vec(const char *key, std::size_t n,
                                      std::uint64_t max = UINT64_MAX);
    std::vector<double> dblVec(const char *key, std::size_t n);

    /** Expect the end marker and end of input. */
    void finish();

    /** Peek whether the next line is `[section]` for @p section. */
    bool nextIs(const char *section) const;

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
};

} // namespace serde
} // namespace stsim

#endif // STSIM_CORE_STATE_SERDE_HH
