#include "bpru.hh"

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "core/state_serde.hh"

namespace stsim
{

BpruEstimator::BpruEstimator(std::size_t size_bytes, const Params &params)
    : sizeBytes_(size_bytes),
      params_(params)
{
    std::size_t entries = size_bytes / 2; // ~2 bytes: tag + 3-bit ctr
    if (!isPowerOf2(entries))
        stsim_fatal("BPRU size %zu B yields non-power-of-2 entries",
                    size_bytes);
    indexBits_ = floorLog2(entries);
    stsim_assert(params_.missInc >= 1 && params_.correctDec >= 1,
                 "degenerate BPRU update rule");
    stsim_assert(params_.allocValue <= 7, "allocValue out of range");
    table_.resize(entries);
}

std::size_t
BpruEstimator::index(Addr pc, std::uint64_t hist) const
{
    // History-sensitive indexing: mispredictions cluster in specific
    // (branch, history) contexts, so folding global history into the
    // index raises both SPEC and PVN (the role value-prediction
    // context plays in the original BPRU).
    return static_cast<std::size_t>(((pc >> 2) ^ hist) &
                                    lowMask(indexBits_));
}

std::uint32_t
BpruEstimator::tagOf(Addr pc) const
{
    return static_cast<std::uint32_t>((pc >> (2 + indexBits_)) &
                                      lowMask(params_.tagBits));
}

ConfLevel
BpruEstimator::levelFromCounter(unsigned value)
{
    if (value <= 1)
        return ConfLevel::VHC;
    if (value <= 3)
        return ConfLevel::HC;
    if (value <= 5)
        return ConfLevel::LC;
    return ConfLevel::VLC;
}

ConfLevel
BpruEstimator::estimateFast(Addr pc, std::uint64_t hist,
                            const DirectionPredictor::Prediction &dir,
                            bool /*oracle_correct*/)
{
    ++lookups_;
    const Entry &e = table_[index(pc, hist)];
    if (e.valid && e.tag == tagOf(pc)) {
        ++hits_;
        return levelFromCounter(e.counter);
    }
    // Table miss: fall back to the underlying branch predictor's
    // saturating counter (§4.3). Weakly taken / weakly not-taken ⇒ LC;
    // strongly biased counters ⇒ HC.
    return dir.weak() ? ConfLevel::LC : ConfLevel::HC;
}

void
BpruEstimator::update(Addr pc, std::uint64_t hist, bool correct)
{
    Entry &e = table_[index(pc, hist)];
    if (!e.valid || e.tag != tagOf(pc)) {
        // Allocate on update so the estimator learns the branch.
        e.valid = true;
        e.tag = tagOf(pc);
        e.counter = static_cast<std::uint8_t>(params_.allocValue);
    }
    if (correct) {
        unsigned dec = params_.correctDec;
        e.counter = static_cast<std::uint8_t>(
            e.counter > dec ? e.counter - dec : 0);
    } else {
        unsigned v = e.counter + params_.missInc;
        e.counter = static_cast<std::uint8_t>(v > 7 ? 7 : v);
    }
}

void
BpruEstimator::saveState(serde::StateWriter &w) const
{
    w.begin("confidence");
    std::vector<std::uint64_t> valid(table_.size());
    std::vector<std::uint64_t> tag(table_.size());
    std::vector<std::uint64_t> counter(table_.size());
    for (std::size_t i = 0; i < table_.size(); ++i) {
        valid[i] = table_[i].valid ? 1 : 0;
        tag[i] = table_[i].tag;
        counter[i] = table_[i].counter;
    }
    w.u64Vec("valid", valid);
    w.u64Vec("tag", tag);
    w.u64Vec("counter", counter);
    w.u64("lookups", lookups_);
    w.u64("hits", hits_);
    w.end("confidence");
}

void
BpruEstimator::loadState(serde::StateReader &r)
{
    r.begin("confidence");
    const std::size_t n = table_.size();
    std::vector<std::uint64_t> valid = r.u64Vec("valid", n, 1);
    std::vector<std::uint64_t> tag = r.u64Vec("tag", n, UINT32_MAX);
    std::vector<std::uint64_t> counter = r.u64Vec("counter", n, UINT8_MAX);
    for (std::size_t i = 0; i < table_.size(); ++i) {
        table_[i].valid = valid[i] != 0;
        table_[i].tag = static_cast<std::uint32_t>(tag[i]);
        table_[i].counter = static_cast<std::uint8_t>(counter[i]);
    }
    lookups_ = r.u64("lookups");
    hits_ = r.u64("hits");
    r.end("confidence");
}

} // namespace stsim
