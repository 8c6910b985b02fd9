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
#include <type_traits>

namespace stsim
{

/** S is T, const or not: the constraint on each visitFields overload. */
template <typename S, typename T>
concept FieldsOf = std::same_as<std::remove_const_t<S>, T>;

} // namespace stsim

#endif // STSIM_COMMON_FIELDS_HH
