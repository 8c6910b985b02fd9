/**
 * @file
 * The field-list convention behind every serialized struct. Each struct
 * the text formats carry declares, next to itself,
 *
 *     template <FieldsOf<Foo> S, typename V>
 *     void
 *     visitFields(S &s, V &&v)
 *     {
 *         v("key", s.member);
 *         ...
 *     }
 *
 * S is deduced const for writers and non-const for readers, so one list
 * serves both directions. The call order is the field order of every
 * format derived from the list (JSON, CSV, snapshot counters) and the
 * keys are the JSON names; a per-unit array also passes its CSV column
 * stem as a third argument. Adding a field is one line here plus a
 * golden update (tests/golden/).
 */

#ifndef STSIM_COMMON_FIELDS_HH
#define STSIM_COMMON_FIELDS_HH

#include <concepts>
#include <cstdint>
#include <type_traits>

#include "common/logging.hh"

namespace stsim
{

/** S is T, const or not: the constraint on each visitFields overload. */
template <typename S, typename T>
concept FieldsOf = std::same_as<std::remove_const_t<S>, T>;

/**
 * The largest latency or penalty, in cycles, a machine config may set.
 * With every one at this bound, the longest wait between two commits
 * of the baseline, C2 and PG jobs of all eight benchmarks (20K
 * instructions after 5K of warmup) was 7,991 cycles, far inside the
 * core's 100,000-cycle no-commit watchdog.
 */
inline constexpr unsigned kMaxLatency = 1000;

/**
 * Fatal, naming @p owner's field @p key, unless @p lo <= @p v <= @p hi
 * and, when @p pow2 is set, @p v is a power of two. Each config's
 * validate() bounds every machine field through it, so a hostile
 * config is a structured error instead of a panic, a deadlock or an
 * allocation failure.
 */
inline void
checkField(const char *owner, const char *key, std::uint64_t v,
           std::uint64_t lo, std::uint64_t hi, bool pow2 = false)
{
    if (v < lo || v > hi || (pow2 && (v & (v - 1)) != 0))
        stsim_fatal("%s: %s is %llu; it must be %sin [%llu, %llu]", owner,
                    key, static_cast<unsigned long long>(v),
                    pow2 ? "a power of two " : "",
                    static_cast<unsigned long long>(lo),
                    static_cast<unsigned long long>(hi));
}

} // namespace stsim

#endif // STSIM_COMMON_FIELDS_HH
