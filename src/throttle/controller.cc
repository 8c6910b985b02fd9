#include "controller.hh"

#include "common/logging.hh"
#include "core/state_serde.hh"

namespace stsim
{

SpeculationController::SpeculationController(const SpecControlConfig &cfg)
    : cfg_(cfg)
{
    if (cfg_.mode == SpecControlMode::PipelineGating)
        stsim_assert(cfg_.gatingThreshold >= 1, "bad gating threshold");

    for (std::size_t i = 0; i < kNumLevels; ++i) {
        actFetch_[i] = BandwidthLevel::Full;
        actDecode_[i] = BandwidthLevel::Full;
    }
    if (cfg_.mode == SpecControlMode::Selective) {
        for (std::size_t i = 0; i < kNumLevels; ++i) {
            const ThrottleAction &a =
                cfg_.policy.action(static_cast<ConfLevel>(i));
            actFetch_[i] = a.fetch;
            actDecode_[i] = a.decode;
            actNoSelect_[i] = a.noSelect;
            actDecodeRestricted_[i] = a.decode != BandwidthLevel::Full;
        }
    }

    // Sized for the deepest realistic in-flight branch population; the
    // structures grow on demand so these are not correctness bounds.
    buf_.resize(256);
    bufMask_ = buf_.size() - 1;
    posRing_.init(2048, kInvalidPos);
}

std::uint64_t
SpeculationController::findLive(InstSeq seq) const
{
    std::uint64_t pos = posRing_[seq];
    if (pos >= head_ && pos < tail_) {
        const Tracked &t = at(pos);
        if (t.seq == seq && t.live)
            return pos;
    }
    return kInvalidPos;
}

void
SpeculationController::indexSeq(InstSeq seq, std::uint64_t pos)
{
    // kInvalidPos (the vacant cell value) and any stale position both
    // fail the [head_, tail_) / live checks, so only a genuinely live
    // aliasing entry triggers growth.
    posRing_.insert(
        seq, pos,
        [this](std::uint64_t p) {
            if (p >= head_ && p < tail_) {
                const Tracked &t = at(p);
                if (t.live)
                    return t.seq;
            }
            return kInvalidSeq;
        },
        [this](auto &&fn) {
            for (std::uint64_t p = head_; p < tail_; ++p) {
                const Tracked &t = at(p);
                if (t.live)
                    fn(t.seq, p);
            }
        });
}

void
SpeculationController::rebuildBuffer(std::size_t min_capacity)
{
    std::size_t cap = buf_.size();
    while (cap < min_capacity)
        cap <<= 1;
    std::vector<Tracked> fresh(cap);
    std::uint64_t n = 0;
    std::deque<std::uint64_t> nosel, dec;
    const std::uint64_t mask = cap - 1;
    for (std::uint64_t p = head_; p < tail_; ++p) {
        const Tracked &t = at(p);
        if (!t.live)
            continue;
        fresh[n & mask] = t;
        auto li = static_cast<std::size_t>(t.lvl);
        if (actNoSelect_[li])
            nosel.push_back(n);
        if (actDecodeRestricted_[li])
            dec.push_back(n);
        ++n;
    }
    buf_ = std::move(fresh);
    bufMask_ = mask;
    head_ = 0;
    tail_ = n;
    noSelectQ_ = std::move(nosel);
    decodeQ_ = std::move(dec);
    // Stale posRing_ cells cannot validate against relocated entries
    // unless they happen to point at the right one, so a plain
    // re-index of the live set is sufficient.
    for (std::uint64_t p = head_; p < tail_; ++p)
        indexSeq(at(p).seq, p);
}

void
SpeculationController::refreshLevels()
{
    switch (cfg_.mode) {
      case SpecControlMode::None:
        return;
      case SpecControlMode::PipelineGating:
        fetchLevel_ = lowCount_ > cfg_.gatingThreshold
                          ? BandwidthLevel::Stall
                          : BandwidthLevel::Full;
        return;
      case SpecControlMode::Selective: {
        BandwidthLevel f = BandwidthLevel::Full;
        BandwidthLevel d = BandwidthLevel::Full;
        for (std::size_t i = 0; i < kNumLevels; ++i) {
            if (!levelCount_[i])
                continue;
            f = maxRestriction(f, actFetch_[i]);
            d = maxRestriction(d, actDecode_[i]);
        }
        fetchLevel_ = f;
        decodeLevel_ = d;
        return;
      }
    }
}

void
SpeculationController::refreshBarriers()
{
    if (cfg_.mode != SpecControlMode::Selective)
        return;
    while (!noSelectQ_.empty()) {
        std::uint64_t p = noSelectQ_.front();
        if (p >= head_ && at(p).live)
            break;
        noSelectQ_.pop_front();
    }
    while (!decodeQ_.empty()) {
        std::uint64_t p = decodeQ_.front();
        if (p >= head_ && at(p).live)
            break;
        decodeQ_.pop_front();
    }
    noSelectBarrier_ =
        noSelectQ_.empty() ? kInvalidSeq : at(noSelectQ_.front()).seq;
    decodeBarrier_ =
        decodeQ_.empty() ? kInvalidSeq : at(decodeQ_.front()).seq;
}

void
SpeculationController::onCondBranchFetched(InstSeq seq, ConfLevel lvl)
{
    if (cfg_.mode == SpecControlMode::None)
        return;
    stsim_dbg_assert(tail_ == head_ || at(tail_ - 1).seq < seq,
                 "branches must arrive in fetch order");
    if (tail_ - head_ == buf_.size())
        rebuildBuffer(liveCount_ + 1);

    std::uint64_t pos = tail_++;
    at(pos) = Tracked{seq, lvl, true};
    indexSeq(seq, pos);

    auto li = static_cast<std::size_t>(lvl);
    ++levelCount_[li];
    ++liveCount_;
    if (isLowConfidence(lvl))
        ++lowCount_;
    if (actNoSelect_[li])
        noSelectQ_.push_back(pos);
    if (actDecodeRestricted_[li])
        decodeQ_.push_back(pos);

    refreshLevels();
    refreshBarriers();
}

void
SpeculationController::onBranchResolved(InstSeq seq)
{
    if (cfg_.mode == SpecControlMode::None)
        return;
    std::uint64_t pos = findLive(seq);
    if (pos == kInvalidPos)
        return; // not a tracked branch (or already squashed)

    Tracked &t = at(pos);
    t.live = false;
    auto li = static_cast<std::size_t>(t.lvl);
    --levelCount_[li];
    --liveCount_;
    if (isLowConfidence(t.lvl))
        --lowCount_;

    // Keep the window compact from the old end. The young end must
    // NOT retreat here: the barrier deques hold positions, and a
    // retreating tail would let the next fetch reuse a position a
    // stale deque entry still points at. Tombstones at the back are
    // reclaimed by squashes (which trim the deques by position) or by
    // the occupancy-driven rebuild.
    while (head_ < tail_ && !at(head_).live)
        ++head_;

    refreshLevels();
    refreshBarriers();
}

void
SpeculationController::squashYoungerThan(InstSeq seq)
{
    if (cfg_.mode == SpecControlMode::None)
        return;
    while (tail_ > head_ && at(tail_ - 1).seq > seq) {
        const Tracked &t = at(tail_ - 1);
        if (t.live) {
            auto li = static_cast<std::size_t>(t.lvl);
            --levelCount_[li];
            --liveCount_;
            if (isLowConfidence(t.lvl))
                --lowCount_;
        }
        --tail_;
    }
    while (!noSelectQ_.empty() && noSelectQ_.back() >= tail_)
        noSelectQ_.pop_back();
    while (!decodeQ_.empty() && decodeQ_.back() >= tail_)
        decodeQ_.pop_back();

    refreshLevels();
    refreshBarriers();
}

void
SpeculationController::saveState(serde::StateWriter &w) const
{
    w.begin("controller");
    // Only the live tracked branches are state; tombstones, buffer
    // geometry and deque positions are reconstructed by replaying the
    // inserts in fetch order (the same path rebuildBuffer compacts
    // through), which restores every derived quantity exactly.
    std::vector<std::uint64_t> seq, lvl;
    for (std::uint64_t p = head_; p < tail_; ++p) {
        const Tracked &t = at(p);
        if (!t.live)
            continue;
        seq.push_back(t.seq);
        lvl.push_back(static_cast<std::uint64_t>(t.lvl));
    }
    w.u64Vec("seq", seq);
    w.u64Vec("lvl", lvl);
    w.u64("fetch_gated_cycles", fetchGatedCycles_);
    w.u64("decode_gated_cycles", decodeGatedCycles_);
    w.end("controller");
}

void
SpeculationController::loadState(serde::StateReader &r)
{
    r.begin("controller");
    std::vector<std::uint64_t> seq = r.u64Vec("seq");
    std::vector<std::uint64_t> lvl =
        r.u64Vec("lvl", seq.size(), kNumLevels - 1);

    // Back to the constructed state, then replay the live set.
    buf_.assign(256, Tracked{});
    bufMask_ = buf_.size() - 1;
    head_ = tail_ = 0;
    posRing_.init(2048, kInvalidPos);
    for (auto &c : levelCount_)
        c = 0;
    lowCount_ = liveCount_ = 0;
    noSelectQ_.clear();
    decodeQ_.clear();
    fetchLevel_ = decodeLevel_ = BandwidthLevel::Full;
    noSelectBarrier_ = decodeBarrier_ = kInvalidSeq;
    refreshLevels();

    for (std::size_t i = 0; i < seq.size(); ++i)
        onCondBranchFetched(seq[i], static_cast<ConfLevel>(lvl[i]));
    if (cfg_.mode == SpecControlMode::None && !seq.empty())
        stsim_fatal("state: controller snapshot has %zu tracked "
                    "branches but this config has no speculation "
                    "control",
                    seq.size());

    fetchGatedCycles_ = r.u64("fetch_gated_cycles");
    decodeGatedCycles_ = r.u64("decode_gated_cycles");
    r.end("controller");
}

} // namespace stsim
