/**
 * @file
 * Two-level memory hierarchy per the paper's Table 3: split 64 KB
 * 2-way L1s, a unified 512 KB 4-way L2 (6-cycle hit), 18-cycle memory
 * latency beyond L2, and a 128-entry fully-associative TLB.
 */

#ifndef STSIM_CACHE_HIERARCHY_HH
#define STSIM_CACHE_HIERARCHY_HH

#include "cache/cache.hh"
#include "cache/tlb.hh"
#include "common/fields.hh"
#include "common/types.hh"

namespace stsim
{

/** Hierarchy parameters (defaults = Table 3). */
struct MemoryConfig
{
    CacheConfig il1{"il1", 64 * 1024, 2, 32, 1};
    CacheConfig dl1{"dl1", 64 * 1024, 2, 32, 1};
    CacheConfig l2{"l2", 512 * 1024, 4, 32, 6};
    unsigned memLatency = 18;     ///< beyond-L2 latency (cycles)
    std::size_t tlbEntries = 128;
    std::size_t pageBytes = 4 * 1024;
    unsigned tlbMissPenalty = 28;
    /** Extra DL1 latency added by deep-pipeline configs (§5.3.1). */
    unsigned dl1ExtraLatency = 0;

    /** Fatal, naming the field, unless every field is in range. */
    void validate() const;
};

template <FieldsOf<MemoryConfig> S, typename V>
void
visitFields(S &s, V &&v)
{
    v("il1", s.il1);
    v("dl1", s.dl1);
    v("l2", s.l2);
    v("memLatency", s.memLatency);
    v("tlbEntries", s.tlbEntries);
    v("pageBytes", s.pageBytes);
    v("tlbMissPenalty", s.tlbMissPenalty);
    v("dl1ExtraLatency", s.dl1ExtraLatency);
}

/** Result of a hierarchy access. */
struct MemAccessResult
{
    unsigned latency = 1;  ///< total cycles to data/instructions
    bool l1Hit = true;
    bool l2Hit = true;     ///< meaningful only when !l1Hit
    bool l2Accessed = false;
    bool tlbMiss = false;
};

/** Front door for instruction fetch and data access timing. */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const MemoryConfig &cfg);

    /** Fetch the line containing @p pc. */
    MemAccessResult fetchInst(Addr pc, bool wrong_path);

    /** Load/store data access at @p addr. */
    MemAccessResult accessData(Addr addr, bool is_write, bool wrong_path);

    const Cache &il1() const { return il1_; }
    const Cache &dl1() const { return dl1_; }
    const Cache &l2() const { return l2_; }
    const Tlb &dtlb() const { return dtlb_; }
    const MemoryConfig &config() const { return cfg_; }

    /** Zero all cache/TLB statistics (end of warmup); state is kept. */
    void
    resetStats()
    {
        il1_.resetStats();
        dl1_.resetStats();
        l2_.resetStats();
        dtlb_.resetStats();
    }

    /** Save or restore every level (see core/state_serde.hh). */
    void state(serde::StateIO &io);

  private:
    MemoryConfig cfg_;
    Cache il1_;
    Cache dl1_;
    Cache l2_;
    Tlb dtlb_;
};

} // namespace stsim

#endif // STSIM_CACHE_HIERARCHY_HH
