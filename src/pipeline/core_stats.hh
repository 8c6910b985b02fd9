/**
 * @file
 * Raw event counters collected by the core. Derived metrics (IPC,
 * savings) are computed by the core library layer.
 */

#ifndef STSIM_PIPELINE_CORE_STATS_HH
#define STSIM_PIPELINE_CORE_STATS_HH

#include "common/fields.hh"
#include "common/types.hh"

namespace stsim
{

/** Event counters for one simulation run. */
struct CoreStats
{
    Counter cycles = 0;

    /// @name Commit
    /// @{
    Counter committedInsts = 0;
    Counter committedBranches = 0;
    Counter committedCondBranches = 0;
    Counter condMispredicts = 0; ///< commit-time direction mispredicts
    /// @}

    /// @name Flow per stage (correct + wrong path)
    /// @{
    Counter fetchedInsts = 0;
    Counter fetchedWrongPath = 0;
    Counter decodedInsts = 0;
    Counter decodedWrongPath = 0;
    Counter dispatchedInsts = 0;
    Counter dispatchedWrongPath = 0;
    Counter issuedInsts = 0;
    Counter issuedWrongPath = 0;
    /// @}

    /// @name Squash/recovery
    /// @{
    Counter squashes = 0;
    Counter squashedInsts = 0;
    Counter btbMisfetches = 0;
    Counter rasMispredicts = 0;
    /// @}

    /// @name Stall/throttle accounting (cycles)
    /// @{
    Counter fetchIcacheStall = 0;
    Counter fetchRedirectStall = 0;
    Counter fetchThrottled = 0;   ///< gated by the controller
    Counter decodeThrottled = 0;
    Counter oracleFetchStall = 0; ///< oracle-fetch wait-for-resolve
    Counter robFullStalls = 0;
    Counter lsqFullStalls = 0;
    /// @}

    /// @name Issue details
    /// @{
    Counter noSelectSkips = 0; ///< ready-but-suppressed select events
    Counter loadsForwarded = 0;
    Counter loadsBlockedByStore = 0;
    Counter oracleSelectSkips = 0;
    Counter oracleDecodeDrops = 0;
    /// @}

    /** Committed instructions per cycle. */
    double
    ipc() const
    {
        return cycles ? static_cast<double>(committedInsts) / cycles
                      : 0.0;
    }

    /** Wrong-path share of fetched instructions. */
    double
    wrongPathFetchFrac() const
    {
        return fetchedInsts ? static_cast<double>(fetchedWrongPath) /
                                  fetchedInsts
                            : 0.0;
    }
};

/** Also the order of the snapshot image's [core_stats] counters. */
template <FieldsOf<CoreStats> S, typename V>
void
visitFields(S &s, V &&v)
{
    v("cycles", s.cycles);
    v("committedInsts", s.committedInsts);
    v("committedBranches", s.committedBranches);
    v("committedCondBranches", s.committedCondBranches);
    v("condMispredicts", s.condMispredicts);
    v("fetchedInsts", s.fetchedInsts);
    v("fetchedWrongPath", s.fetchedWrongPath);
    v("decodedInsts", s.decodedInsts);
    v("decodedWrongPath", s.decodedWrongPath);
    v("dispatchedInsts", s.dispatchedInsts);
    v("dispatchedWrongPath", s.dispatchedWrongPath);
    v("issuedInsts", s.issuedInsts);
    v("issuedWrongPath", s.issuedWrongPath);
    v("squashes", s.squashes);
    v("squashedInsts", s.squashedInsts);
    v("btbMisfetches", s.btbMisfetches);
    v("rasMispredicts", s.rasMispredicts);
    v("fetchIcacheStall", s.fetchIcacheStall);
    v("fetchRedirectStall", s.fetchRedirectStall);
    v("fetchThrottled", s.fetchThrottled);
    v("decodeThrottled", s.decodeThrottled);
    v("oracleFetchStall", s.oracleFetchStall);
    v("robFullStalls", s.robFullStalls);
    v("lsqFullStalls", s.lsqFullStalls);
    v("noSelectSkips", s.noSelectSkips);
    v("loadsForwarded", s.loadsForwarded);
    v("loadsBlockedByStore", s.loadsBlockedByStore);
    v("oracleSelectSkips", s.oracleSelectSkips);
    v("oracleDecodeDrops", s.oracleDecodeDrops);
}

} // namespace stsim

#endif // STSIM_PIPELINE_CORE_STATS_HH
