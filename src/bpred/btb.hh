/**
 * @file
 * Branch target buffer: set-associative tagged cache of branch targets
 * (Table 3: 1024 entries, 2-way).
 */

#ifndef STSIM_BPRED_BTB_HH
#define STSIM_BPRED_BTB_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"

namespace stsim
{

namespace serde
{
class StateIO;
} // namespace serde

/** Set-associative BTB with LRU replacement. */
class Btb
{
  public:
    /**
     * @param entries Total entries (power of two).
     * @param ways Associativity (divides entries).
     */
    Btb(std::size_t entries, std::size_t ways);

    /** Predicted target for the branch at @p pc, if present. */
    std::optional<Addr> lookup(Addr pc);

    /** Install/refresh the target of the branch at @p pc. */
    void update(Addr pc, Addr target);

    std::size_t numEntries() const { return entries_.size(); }
    std::size_t numWays() const { return ways_; }

    /** Lookups performed (for activity accounting). */
    Counter lookups() const { return lookups_; }

    /** Lookup hits. */
    Counter hits() const { return hits_; }

    /** Save or restore table contents + LRU clock + counters. */
    void state(serde::StateIO &io);

  private:
    struct Entry
    {
        bool valid = false;
        Addr tag = 0;
        Addr target = 0;
        std::uint64_t lastUse = 0;
    };

    std::size_t setIndex(Addr pc) const;

    std::size_t ways_;
    std::size_t numSets_;
    unsigned setBits_;
    std::vector<Entry> entries_; // sets * ways, way-major within set
    std::uint64_t useClock_ = 0;
    Counter lookups_ = 0;
    Counter hits_ = 0;
};

} // namespace stsim

#endif // STSIM_BPRED_BTB_HH
