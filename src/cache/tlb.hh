/**
 * @file
 * Fully-associative TLB (Table 3: 128 entries, 4 KB pages).
 */

#ifndef STSIM_CACHE_TLB_HH
#define STSIM_CACHE_TLB_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace stsim
{

namespace serde
{
class StateIO;
} // namespace serde

/** Fully-associative LRU TLB. */
class Tlb
{
  public:
    /**
     * @param entries Number of page entries.
     * @param page_bytes Page size (power of two).
     * @param miss_penalty Cycles added on a TLB miss.
     */
    Tlb(std::size_t entries, std::size_t page_bytes,
        unsigned miss_penalty);

    /** Translate; returns true on hit (allocates on miss). */
    bool access(Addr vaddr);

    unsigned missPenalty() const { return missPenalty_; }
    Counter accesses() const { return accesses_; }
    Counter misses() const { return misses_; }

    /** Zero counters (end of warmup); contents stay warm. */
    void resetStats() { accesses_ = misses_ = 0; }

    /**
     * Save or restore resident pages + LRU clock; the hash index is
     * rebuilt on load (it is never iterated, so its layout is not
     * state).
     */
    void state(serde::StateIO &io);

  private:
    struct Entry
    {
        Addr vpn = 0;
        std::uint64_t lastUse = 0;
    };

    // Hit path is one hash lookup; the O(entries) LRU-victim scan only
    // runs on the (rare) miss. vpnIndex_ is never iterated, so the
    // unordered layout cannot affect determinism.
    std::vector<Entry> entries_;                    ///< resident pages
    std::unordered_map<Addr, std::uint32_t> vpnIndex_; ///< vpn -> slot
    std::size_t capacity_;
    unsigned pageBits_;
    unsigned missPenalty_;
    std::uint64_t useClock_ = 0;
    Counter accesses_ = 0;
    Counter misses_ = 0;
};

} // namespace stsim

#endif // STSIM_CACHE_TLB_HH
