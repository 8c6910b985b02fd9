#include "jrs.hh"

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "core/state_serde.hh"

namespace stsim
{

JrsEstimator::JrsEstimator(std::size_t size_bytes, unsigned threshold)
    : sizeBytes_(size_bytes),
      threshold_(threshold)
{
    std::size_t entries = size_bytes * 2; // 4-bit MDCs
    if (!isPowerOf2(entries))
        stsim_fatal("JRS size %zu B yields non-power-of-2 entries",
                    size_bytes);
    indexBits_ = floorLog2(entries);
    stsim_assert(threshold_ >= 1 && threshold_ <= 15,
                 "bad MDC threshold %u", threshold_);
    table_.assign(entries, SatCounter(4, 0));
}

std::size_t
JrsEstimator::index(Addr pc, std::uint64_t hist) const
{
    return static_cast<std::size_t>(((pc >> 2) ^ hist) &
                                    lowMask(indexBits_));
}

ConfLevel
JrsEstimator::estimateFast(Addr pc, std::uint64_t hist,
                           const DirectionPredictor::Prediction & /*dir*/,
                           bool /*oracle_correct*/)
{
    // JRS is inherently two-level: the MDC either cleared the threshold
    // (high confidence) or it did not (low confidence).
    const SatCounter &c = table_[index(pc, hist)];
    return c.value() >= threshold_ ? ConfLevel::HC : ConfLevel::LC;
}

void
JrsEstimator::update(Addr pc, std::uint64_t hist, bool correct)
{
    SatCounter &c = table_[index(pc, hist)];
    if (correct)
        c.increment();
    else
        c.reset(); // miss distance counter: any miss clears it
}

void
JrsEstimator::saveState(serde::StateWriter &w) const
{
    w.begin("confidence");
    std::vector<std::uint64_t> v(table_.size());
    for (std::size_t i = 0; i < table_.size(); ++i)
        v[i] = table_[i].value();
    w.u64Vec("mdc", v);
    w.end("confidence");
}

void
JrsEstimator::loadState(serde::StateReader &r)
{
    r.begin("confidence");
    std::vector<std::uint64_t> v = r.u64Vec("mdc", table_.size());
    for (std::size_t i = 0; i < table_.size(); ++i)
        table_[i].set(static_cast<unsigned>(v[i]));
    r.end("confidence");
}

// The base-class defaults serialize an empty section: stateless
// estimators (the oracle) round-trip as a tagged placeholder, so the
// snapshot layout is uniform across confidence kinds.
void
ConfidenceEstimator::saveState(serde::StateWriter &w) const
{
    w.begin("confidence");
    w.end("confidence");
}

void
ConfidenceEstimator::loadState(serde::StateReader &r)
{
    r.begin("confidence");
    r.end("confidence");
}

const char *
confLevelName(ConfLevel lvl)
{
    switch (lvl) {
      case ConfLevel::VHC: return "VHC";
      case ConfLevel::HC: return "HC";
      case ConfLevel::LC: return "LC";
      case ConfLevel::VLC: return "VLC";
    }
    return "?";
}

} // namespace stsim
