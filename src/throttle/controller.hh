/**
 * @file
 * Speculation controller: tracks outstanding low-confidence branches
 * and turns a ThrottlePolicy (Selective Throttling) or a gating
 * threshold (Pipeline Gating) into per-cycle fetch/decode gating
 * decisions and the selection-throttling barrier.
 */

#ifndef STSIM_THROTTLE_CONTROLLER_HH
#define STSIM_THROTTLE_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "common/fields.hh"
#include "common/seq_ring.hh"
#include "common/types.hh"
#include "confidence/estimator.hh"
#include "throttle/policy.hh"

namespace stsim
{

/** Which speculation-control mechanism is active. */
enum class SpecControlMode : std::uint8_t
{
    None,            ///< baseline: no speculation control
    Selective,       ///< the paper's Selective Throttling
    PipelineGating,  ///< Manne et al.: stall fetch while M > threshold
};

/** Controller configuration. */
struct SpecControlConfig
{
    SpecControlMode mode = SpecControlMode::None;
    ThrottlePolicy policy;        ///< Selective mode only
    unsigned gatingThreshold = 2; ///< PipelineGating mode only

    /** Fatal, naming the field, unless every field is in range. */
    void validate() const;
};

template <FieldsOf<SpecControlConfig> S, typename V>
void
visitFields(S &s, V &&v)
{
    v("mode", s.mode);
    v("policy", s.policy);
    v("gatingThreshold", s.gatingThreshold);
}

/**
 * Tracks every unresolved conditional branch that was assigned a
 * confidence level at fetch and derives the currently active throttle
 * state.
 *
 * Selective mode: the active fetch/decode restriction is the
 * element-wise most restrictive action over all outstanding LC/VLC
 * branches, which realizes §4.2's monotonic-upgrade rule (a younger
 * LC/VLC branch can only tighten the throttle; resolutions release
 * it). The selection-throttling barrier is the oldest outstanding
 * branch whose action carries no-select: window entries younger than
 * the barrier must not raise their selection request.
 *
 * PipelineGating mode: fetch is fully gated while the number of
 * outstanding low-confidence (LC/VLC) branches exceeds the gating
 * threshold (paper configuration: JRS estimator, threshold 2).
 *
 * The control state is maintained incrementally: per-confidence-level
 * outstanding counts give the active bandwidth levels in O(levels)
 * per event, the barriers come from per-action deques of tracked-entry
 * positions (cleaned lazily, amortized O(1)), and resolution finds its
 * entry through a seq-indexed ring instead of a linear walk. The
 * reference semantics, a full rescan of the outstanding set on every
 * event, live in tests/test_throttle.cc, which drives both models
 * through randomized event streams (snapshot restores included).
 */
class SpeculationController
{
  public:
    explicit SpeculationController(const SpecControlConfig &cfg);

    /** A conditional branch with confidence @p lvl entered the pipe. */
    void onCondBranchFetched(InstSeq seq, ConfLevel lvl);

    /** Branch @p seq resolved (executed); releases its heuristic. */
    void onBranchResolved(InstSeq seq);

    /** Squash: drop tracked branches younger than @p seq. */
    void squashYoungerThan(InstSeq seq);

    /** May fetch do work this cycle? */
    bool
    fetchActive(Cycle cycle) const
    {
        return bandwidthActive(fetchLevel_, cycle);
    }

    /** May decode do work this cycle? */
    bool
    decodeActive(Cycle cycle) const
    {
        return bandwidthActive(decodeLevel_, cycle);
    }

    /**
     * Selection-throttling barrier: window entries with seq strictly
     * greater than this are not selectable. kInvalidSeq when no
     * no-select heuristic is active (all entries selectable).
     */
    InstSeq noSelectBarrier() const { return noSelectBarrier_; }

    /**
     * Decode-throttling barrier: the decode gate applies only to
     * instructions younger than the oldest branch that triggered a
     * decode restriction -- the trigger itself (and everything older)
     * must drain, or it could never resolve and release the gate.
     * kInvalidSeq when decode is unrestricted.
     */
    InstSeq decodeBarrier() const { return decodeBarrier_; }

    /** Current fetch restriction level (Selective mode). */
    BandwidthLevel fetchLevel() const { return fetchLevel_; }

    /** Current decode restriction level (Selective mode). */
    BandwidthLevel decodeLevel() const { return decodeLevel_; }

    /** Outstanding tracked branches (diagnostics). */
    std::size_t outstanding() const { return liveCount_; }

    /** Outstanding LC/VLC branches (Pipeline Gating's M). */
    unsigned lowConfOutstanding() const { return lowCount_; }

    const SpecControlConfig &config() const { return cfg_; }

    /// @name Statistics
    /// @{
    Counter fetchGatedCycles() const { return fetchGatedCycles_; }
    Counter decodeGatedCycles() const { return decodeGatedCycles_; }
    /** Called by the core once per cycle to accumulate gating stats. */
    void
    tickStats(Cycle cycle)
    {
        if (!fetchActive(cycle))
            ++fetchGatedCycles_;
        if (!decodeActive(cycle))
            ++decodeGatedCycles_;
    }
    /// @}

    /**
     * Save or restore the outstanding-branch set and gating counters.
     * Restore replays the live branches in fetch order through
     * onCondBranchFetched, so every incremental structure (counts,
     * barrier deques, position ring, cached levels) is rebuilt through
     * the same code the live path uses.
     */
    void state(serde::StateIO &io);

  private:
    /** Number of confidence levels (VHC, HC, LC, VLC). */
    static constexpr std::size_t kNumLevels = 4;

    /** One tracked branch in the position ring buffer. */
    struct Tracked
    {
        InstSeq seq;
        ConfLevel lvl;
        bool live; ///< false once resolved (tombstone)
    };

    Tracked &at(std::uint64_t pos) { return buf_[pos & bufMask_]; }
    const Tracked &
    at(std::uint64_t pos) const
    {
        return buf_[pos & bufMask_];
    }

    /** Position of the live entry for @p seq, or kInvalidPos. */
    std::uint64_t findLive(InstSeq seq) const;

    /** Re-derive fetchLevel_/decodeLevel_ from the counters (O(1)). */
    void refreshLevels();

    /** Drop dead fronts of the barrier deques; recache barriers. */
    void refreshBarriers();

    /** Compact live entries into a (possibly larger) fresh buffer. */
    void rebuildBuffer(std::size_t min_capacity);

    /** Publish seq -> pos; grows the ring on a live collision. */
    void indexSeq(InstSeq seq, std::uint64_t pos);

    static constexpr std::uint64_t kInvalidPos =
        ~static_cast<std::uint64_t>(0);

    SpecControlConfig cfg_;

    // Tracked branches: a circular buffer addressed by monotone
    // position; [head_, tail_) is the (tombstone-bearing) window.
    std::vector<Tracked> buf_;
    std::uint64_t bufMask_ = 0;
    std::uint64_t head_ = 0;
    std::uint64_t tail_ = 0;

    // seq -> position through the shared grow-on-collision ring,
    // validated against the entry's own seq (same exact-ring pattern
    // as Core's seqSlot_).
    SeqRing<std::uint64_t> posRing_;

    // Incremental state.
    unsigned levelCount_[kNumLevels] = {0, 0, 0, 0};
    unsigned lowCount_ = 0;
    unsigned liveCount_ = 0;
    std::deque<std::uint64_t> noSelectQ_; ///< positions, fetch order
    std::deque<std::uint64_t> decodeQ_;   ///< positions, fetch order

    // Per-level policy actions, resolved at construction.
    BandwidthLevel actFetch_[kNumLevels];
    BandwidthLevel actDecode_[kNumLevels];
    bool actNoSelect_[kNumLevels] = {false, false, false, false};
    bool actDecodeRestricted_[kNumLevels] = {false, false, false,
                                             false};

    // Cached outputs.
    BandwidthLevel fetchLevel_ = BandwidthLevel::Full;
    BandwidthLevel decodeLevel_ = BandwidthLevel::Full;
    InstSeq noSelectBarrier_ = kInvalidSeq;
    InstSeq decodeBarrier_ = kInvalidSeq;

    Counter fetchGatedCycles_ = 0;
    Counter decodeGatedCycles_ = 0;
};

} // namespace stsim

#endif // STSIM_THROTTLE_CONTROLLER_HH
