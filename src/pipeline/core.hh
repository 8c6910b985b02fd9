/**
 * @file
 * The out-of-order core: an RUU-style (SimpleScalar sim-outorder)
 * machine with a parameterizable deep front end, executing a synthetic
 * workload under a branch predictor, confidence estimator, speculation
 * controller (Selective Throttling / Pipeline Gating), memory
 * hierarchy and Wattch-style power model.
 *
 * One tick() simulates one cycle, processing stages in reverse order
 * (commit, writeback, issue, dispatch, decode, fetch) so same-cycle
 * structural hazards resolve without events.
 */

#ifndef STSIM_PIPELINE_CORE_HH
#define STSIM_PIPELINE_CORE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "bpred/bpred_unit.hh"
#include "cache/hierarchy.hh"
#include "common/logging.hh"
#include "common/scan_mask.hh"
#include "common/seq_ring.hh"
#include "common/types.hh"
#include "confidence/dispatch.hh"
#include "confidence/estimator.hh"
#include "confidence/metrics.hh"
#include "pipeline/core_config.hh"
#include "pipeline/core_stats.hh"
#include "pipeline/dyn_inst.hh"
#include "pipeline/fu_pool.hh"
#include "power/power_model.hh"
#include "throttle/controller.hh"
#include "trace/workload.hh"

namespace stsim
{

/**
 * Fixed-capacity power-of-two ring of slot indices. The pipe and
 * window queues (fetch, dispatch, ROB, LSQ) have config-bounded
 * occupancy, so a masked ring replaces std::deque's segmented
 * bookkeeping with single-array indexing on the per-cycle hot paths.
 */
class SlotRing
{
  public:
    void
    init(std::size_t capacity)
    {
        std::size_t cap = 1;
        while (cap < capacity)
            cap <<= 1;
        buf_.assign(cap, 0);
        mask_ = cap - 1;
        head_ = tail_ = 0;
    }

    bool empty() const { return head_ == tail_; }
    std::size_t size() const { return tail_ - head_; }

    void
    push_back(std::uint32_t v)
    {
        stsim_dbg_assert(size() <= mask_, "slot ring overflow");
        buf_[tail_++ & mask_] = v;
    }

    void pop_front() { ++head_; }
    void pop_back() { --tail_; }
    std::uint32_t front() const { return buf_[head_ & mask_]; }
    std::uint32_t back() const { return buf_[(tail_ - 1) & mask_]; }

    std::uint32_t
    operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & mask_];
    }

    /** Absolute head position (checkpointing). */
    std::uint64_t headPos() const { return head_; }

    /** Empty the ring at absolute position @p head (checkpoint
     *  restore; the caller re-pushes the saved contents). */
    void
    restartAt(std::uint64_t head)
    {
        head_ = tail_ = head;
    }

  private:
    std::vector<std::uint32_t> buf_;
    std::uint64_t mask_ = 0;
    std::uint64_t head_ = 0;
    std::uint64_t tail_ = 0;
};

/** The simulated processor core. */
class Core
{
  public:
    /** Non-owning references to the core's collaborators. */
    struct Deps
    {
        Workload *workload = nullptr;
        BpredUnit *bpred = nullptr;
        ConfidenceEstimator *confidence = nullptr; ///< may be null
        MemoryHierarchy *memory = nullptr;
        PowerModel *power = nullptr;
        SpeculationController *controller = nullptr;
    };

    Core(const CoreConfig &cfg, const Deps &deps);

    /** Simulate one cycle. */
    void tick();

    /** Current cycle. */
    Cycle now() const { return now_; }

    const CoreStats &stats() const { return stats_; }

    /** Confidence quality confusion counts (commit-time). */
    const ConfMetrics &confMetrics() const { return confMetrics_; }

    const CoreConfig &config() const { return cfg_; }

    /** In-flight instruction count (diagnostics/tests). */
    std::size_t inFlight() const { return inflightCount_; }

    /**
     * Hot-path event counts for the observability registry. Plain
     * (non-atomic) members bumped on the per-cycle paths; the
     * simulator flushes them into obs counters once per run, so the
     * pipeline itself never touches an atomic.
     */
    struct HotCounters
    {
        std::uint64_t fetchGroups = 0;        ///< batched fetch-group calls
        std::uint64_t dispatchSrcWaiting = 0; ///< resolves: producer live
        std::uint64_t dispatchSrcReady = 0;   ///< resolves: value ready
    };

    const HotCounters &hotCounters() const { return hot_; }

    /** Cycles since the last commit (deadlock watchdog). */
    Cycle cyclesSinceCommit() const { return now_ - lastCommitCycle_; }

    /** Zero event counters at the end of warmup; state is untouched. */
    void
    resetStats()
    {
        stats_ = CoreStats{};
        confMetrics_ = ConfMetrics{};
    }

    /**
     * Checkpoint the full microarchitectural state between ticks: the
     * in-flight instruction pool (with the exact free-list order, so
     * restored runs allocate the same slots), the pipe/window rings,
     * the scheduler bitmap, the writeback calendar, and the fetch
     * engine. Load restores into a freshly constructed Core with the
     * same config and collaborators. Implemented in core_state.cc.
     */
    void saveState(serde::StateWriter &w) const;
    void loadState(serde::StateReader &r);

  private:
    /// @name Pipeline stages (called in this order by tick())
    /// @{
    void commitStage();
    void writebackStage();
    /** Result-bus/wakeup/branch-resolution work for one completion. */
    void completeInst(DynInst &di);
    void issueStage();
    void dispatchStage();
    void decodeStage();
    void fetchStage();
    /// @}

    /// @name Fetch helpers
    /// @{
    /** Fetch source mode. */
    enum class FetchMode : std::uint8_t
    {
        CorrectPath,
        WrongPath,   ///< running a WrongPathCursor after a mispredict
        WaitBranch,  ///< stalled until guard branch resolves
    };

    /** Handle a fetched control instruction; returns next fetch PC or
     *  nullopt when the fetch group must end. */
    std::optional<Addr> processControl(DynInst &di);
    /// @}

    /// @name Squash/recovery
    /// @{
    /** Remove everything younger than @p seq from the machine. */
    void squashAfter(InstSeq seq);

    /** Handle resolution of the fetch-blocking branch. */
    void resolveGuardBranch(DynInst &branch);
    /// @}

    /// @name Slot pool
    /// @{
    std::uint32_t
    allocSlot()
    {
        std::uint32_t s = allocSlotRaw();
        slots_[s].reset();
        return s;
    }

    /**
     * Pop a slot without resetting it. The fetch group path allocates
     * a line's worth of slots before knowing how many the generator
     * fills; unused ones go straight back, so the reset is deferred to
     * the instructions actually kept.
     */
    std::uint32_t
    allocSlotRaw()
    {
        stsim_dbg_assert(!freeSlots_.empty(), "slot pool exhausted");
        std::uint32_t s = freeSlots_.back();
        freeSlots_.pop_back();
        return s;
    }

    /** Return @p slot to the pool; its instruction leaves flight. */
    void
    freeSlot(std::uint32_t slot)
    {
        slots_[slot].seq = kInvalidSeq; // invalidate seqSlot_ hits
        freeSlots_.push_back(slot);
        --inflightCount_;
    }

    DynInst &inst(std::uint32_t slot) { return slots_[slot]; }

    /**
     * Slot of an in-flight seq, or nullopt (committed or squashed).
     * A masked ring lookup validated against the slot's own seq.
     * insertSeqSlot() grows the ring before it would ever overwrite a
     * live instruction's entry, so this is exact, not probabilistic.
     */
    std::optional<std::uint32_t>
    slotOf(InstSeq seq) const
    {
        std::uint32_t s = seqSlot_[seq];
        if (slots_[s].seq == seq)
            return s;
        return std::nullopt;
    }

    /** Publish @p seq -> @p slot; grows the ring on a live collision. */
    void
    insertSeqSlot(InstSeq seq, std::uint32_t slot)
    {
        seqSlot_.insert(
            seq, slot,
            [this](std::uint32_t s) { return slots_[s].seq; },
            [this](auto &&fn) {
                for (std::uint32_t s = 0; s < slots_.size(); ++s) {
                    if (slots_[s].seq != kInvalidSeq)
                        fn(slots_[s].seq, s);
                }
            });
    }
    /// @}

    /// @name Ready tracking
    /// @{
    /**
     * Readiness is a bitmap over monotone window positions (assigned
     * at dispatch, so position order == age order). issueStage walks
     * set bits oldest-first -- the same selection order the previous
     * min-heap produced, without per-entry heap churn.
     */
    void
    setReady(const DynInst &di)
    {
        readyWords_[(di.windowPos & readyMask_) >> 6] |=
            std::uint64_t{1} << (di.windowPos & 63);
    }

    void
    clearReady(const DynInst &di)
    {
        readyWords_[(di.windowPos & readyMask_) >> 6] &=
            ~(std::uint64_t{1} << (di.windowPos & 63));
    }

    /** First ready window position in [pos, end), or kInvalidSeq. */
    std::uint64_t nextReadyPos(std::uint64_t pos,
                               std::uint64_t end) const;
    /// @}

    /// @name Writeback calendar
    /// @{
    /** Schedule completion of @p seq at cycle @p at (strictly
     *  future). Buckets are sorted by seq when first drained, giving
     *  the heap's exact (cycle, seq) pop order. */
    void wbPush(Cycle at, InstSeq seq);

    /** Re-bucket pending events into a wider calendar ring. */
    void growWbCal();
    /// @}

    /// @name Issue helpers
    /// @{
    bool loadMayIssue(const DynInst &di);
    /** Try store-to-load forwarding; true when forwarded. */
    bool tryForward(const DynInst &load);
    void wakeConsumers(DynInst &producer);
    void releaseBlockedLoads();
    /// @}

    CoreConfig cfg_;
    Deps deps_;
    CoreStats stats_;
    ConfMetrics confMetrics_;

    Cycle now_ = 0;
    Cycle lastCommitCycle_ = 0;
    InstSeq nextSeq_ = 1;

    // Slot pool. seqSlot_ maps seq -> slot index through the shared
    // grow-on-collision ring, validated against DynInst::seq (see
    // slotOf).
    std::vector<DynInst> slots_;
    std::vector<std::uint32_t> freeSlots_;
    SeqRing<std::uint32_t> seqSlot_;
    std::size_t inflightCount_ = 0;

    // Pipes and window (slot indices, oldest first).
    SlotRing fetchQ_;
    SlotRing dispatchQ_;
    SlotRing rob_;
    SlotRing lsq_;
    std::uint64_t lsqBasePos_ = 0; ///< position of lsq_.front()
    unsigned readyStores_ = 0; ///< in-window stores with known address

    // Per-domain masks over LSQ positions (position order == seq order
    // for memory ops, so every seq comparison the old vector walks did
    // becomes a position compare / ctz find-first).
    ScanMask unknownStoreMask_; ///< stores whose address is not known
    ScanMask storeAddrMask_;    ///< stores with a known address
    ScanMask blockedLoadMask_;  ///< loads waiting on an older store

    // Scheduling: ready bitmap over window positions. robBasePos_ is
    // the position of rob_.front(); the window covers
    // [robBasePos_, robBasePos_ + rob_.size()).
    std::vector<std::uint64_t> readyWords_;
    std::uint64_t readyMask_ = 0; ///< (bit capacity - 1), pow2 >= RUU
    std::uint64_t robBasePos_ = 0;

    // Writeback calendar: one bucket per future cycle, ring-indexed.
    struct WbBucket
    {
        std::vector<InstSeq> ev;
        Cycle cycle = 0;          ///< cycle these events belong to
        std::uint32_t head = 0;   ///< drain offset into ev
        bool sorted = false;      ///< seq-sorted (set at first drain)

        bool pending() const { return head < ev.size(); }

        void
        clear()
        {
            ev.clear();
            head = 0;
            sorted = false;
        }
    };
    std::vector<WbBucket> wbCal_;
    Cycle wbCalMask_ = 0;
    Cycle wbCursor_ = 0;      ///< oldest cycle that may hold events
    std::size_t wbCount_ = 0; ///< pending events across all buckets

    FuPool fuPool_;
    HotCounters hot_;

    /** Devirtualized estimate() for the (single) estimator; null when
     *  the core has no confidence estimator. */
    ConfEstimateFn confEstimate_ = nullptr;

    // Fetch state.
    FetchMode fetchMode_ = FetchMode::CorrectPath;
    std::optional<WrongPathCursor> wrongCursor_;
    InstSeq guardBranchSeq_ = kInvalidSeq; ///< branch fetch waits on
    Addr fetchPc_ = 0;
    Cycle fetchStallUntil_ = 0;

    // Capacities.
    std::size_t fetchQCap_;
    std::size_t dispatchQCap_;
};

} // namespace stsim

#endif // STSIM_PIPELINE_CORE_HH
