/**
 * @file
 * Set-associative LRU cache model with wrong-path pollution accounting.
 * Timing is returned to the caller as hit/miss; latencies are composed
 * by the MemoryHierarchy.
 */

#ifndef STSIM_CACHE_CACHE_HH
#define STSIM_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/fields.hh"
#include "common/types.hh"

namespace stsim
{

namespace serde
{
class StateWriter;
class StateReader;
} // namespace serde

/** Geometry/latency parameters of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::size_t sizeBytes = 64 * 1024;
    std::size_t ways = 2;
    std::size_t lineBytes = 32;
    unsigned hitLatency = 1;
};

template <FieldsOf<CacheConfig> S, typename V>
void
visitFields(S &s, V &&v)
{
    v("name", s.name);
    v("sizeBytes", s.sizeBytes);
    v("ways", s.ways);
    v("lineBytes", s.lineBytes);
    v("hitLatency", s.hitLatency);
}

/**
 * Blocking set-associative cache with true-LRU replacement. Tracks
 * which lines were filled by wrong-path accesses so speculative
 * pollution (a wrong-path fill evicting a correct-path line) can be
 * quantified.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /**
     * Access one address.
     *
     * @param addr Byte address.
     * @param is_write Store (writes allocate, like SimpleScalar's WB L1).
     * @param wrong_path Access issued on a mis-speculated path.
     * @return true on hit.
     */
    bool access(Addr addr, bool is_write, bool wrong_path);

    /** Probe without updating state (for tests/inspection). */
    bool probe(Addr addr) const;

    const CacheConfig &config() const { return cfg_; }

    /// @name Statistics
    /// @{
    Counter accesses() const { return accesses_; }
    Counter misses() const { return misses_; }
    Counter wrongPathAccesses() const { return wrongPathAccesses_; }
    /** Correct-path lines evicted by wrong-path fills. */
    Counter pollutionEvictions() const { return pollutionEvictions_; }
    double
    missRate() const
    {
        return accesses_ ? static_cast<double>(misses_) / accesses_ : 0.0;
    }
    /** Zero counters (end of warmup); contents stay warm. */
    void
    resetStats()
    {
        accesses_ = misses_ = wrongPathAccesses_ = pollutionEvictions_ = 0;
    }
    /// @}

    /** Checkpoint lines, MRU hints, LRU clock, and counters. */
    void saveState(serde::StateWriter &w) const;
    void loadState(serde::StateReader &r);

  private:
    struct Line
    {
        Addr tag = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
        bool wrongPathFill = false;
    };

    CacheConfig cfg_;
    std::size_t numSets_;
    unsigned setBits_;
    unsigned lineBits_;
    std::vector<Line> lines_; // sets * ways
    /**
     * Per-set MRU way hint: the way the set last hit or filled.
     * Checked before the associative scan -- repeated touches to a
     * hot line (instruction streaming, stack traffic) short-circuit
     * in one compare. Purely an accelerator: a wrong hint falls back
     * to the full scan, so replacement behavior is unchanged.
     */
    std::vector<std::uint8_t> mruWay_;
    Addr setMask_ = 0;
    std::uint64_t useClock_ = 0;

    Counter accesses_ = 0;
    Counter misses_ = 0;
    Counter wrongPathAccesses_ = 0;
    Counter pollutionEvictions_ = 0;
};

} // namespace stsim

#endif // STSIM_CACHE_CACHE_HH
