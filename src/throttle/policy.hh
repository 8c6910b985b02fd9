/**
 * @file
 * Selective Throttling policy descriptions (§4.1/§4.2): which
 * power-aware heuristic each confidence level triggers.
 */

#ifndef STSIM_THROTTLE_POLICY_HH
#define STSIM_THROTTLE_POLICY_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fields.hh"
#include "common/types.hh"
#include "confidence/estimator.hh"

namespace stsim
{

/**
 * Bandwidth restriction applied to an in-order stage, ordered from
 * least to most restrictive. Half/Quarter alternate full-activity
 * cycles with stalled cycles (§4.1: "eight instructions are fetched in
 * a given cycle and zero instructions are fetched in the next").
 */
enum class BandwidthLevel : std::uint8_t
{
    Full,    ///< no restriction
    Half,    ///< active every 2nd cycle
    Quarter, ///< active every 4th cycle
    Stall,   ///< fully gated
};

/** Short display name ("1/1", "1/2", "1/4", "0"). */
const char *bandwidthLevelName(BandwidthLevel lvl);

/** True when the stage may do work this @p cycle under @p lvl. */
inline bool
bandwidthActive(BandwidthLevel lvl, Cycle cycle)
{
    switch (lvl) {
      case BandwidthLevel::Full: return true;
      case BandwidthLevel::Half: return (cycle & 1) == 0;
      case BandwidthLevel::Quarter: return (cycle & 3) == 0;
      case BandwidthLevel::Stall: return false;
    }
    return true;
}

/** The more restrictive of two levels. */
inline BandwidthLevel
maxRestriction(BandwidthLevel a, BandwidthLevel b)
{
    return a > b ? a : b;
}

/** The set of heuristics one confidence level triggers. */
struct ThrottleAction
{
    BandwidthLevel fetch = BandwidthLevel::Full;
    BandwidthLevel decode = BandwidthLevel::Full;
    bool noSelect = false; ///< selection throttling of dependents

    bool
    isNull() const
    {
        return fetch == BandwidthLevel::Full &&
               decode == BandwidthLevel::Full && !noSelect;
    }
};

template <FieldsOf<ThrottleAction> S, typename V>
void
visitFields(S &s, V &&v)
{
    v("fetch", s.fetch);
    v("decode", s.decode);
    v("noSelect", s.noSelect);
}

/**
 * A Selective Throttling policy: one ThrottleAction per confidence
 * level. VHC/HC are conventionally null; LC/VLC carry the heuristics.
 */
struct ThrottlePolicy
{
    std::string name = "none";

    /** Indexed by static_cast<size_t>(ConfLevel). */
    std::array<ThrottleAction, 4> byLevel{};

    const ThrottleAction &
    action(ConfLevel lvl) const
    {
        return byLevel[static_cast<std::size_t>(lvl)];
    }

    /** True when no level triggers anything (baseline). */
    bool
    isNull() const
    {
        for (const auto &a : byLevel)
            if (!a.isNull())
                return false;
        return true;
    }

    /** Convenience builder: assign the LC and VLC actions. */
    static ThrottlePolicy make(std::string name, ThrottleAction lc,
                               ThrottleAction vlc);

    /**
     * The paper's named experiments: A1..A6 (Figure 3), B1..B8
     * (Figure 4), C1..C6 (Figure 5). Pipeline Gating (A7/B9/C7) is a
     * separate mechanism, not a ThrottlePolicy. Fatals on an unknown
     * name.
     */
    static ThrottlePolicy byName(const std::string &name);

    /** All named experiment policies, in paper order. */
    static const std::vector<std::string> &experimentNames();
};

template <FieldsOf<ThrottlePolicy> S, typename V>
void
visitFields(S &s, V &&v)
{
    v("name", s.name);
    v("byLevel", s.byLevel);
}

} // namespace stsim

#endif // STSIM_THROTTLE_POLICY_HH
