#include "gshare.hh"

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "core/state_serde.hh"

namespace stsim
{

Gshare::Gshare(std::size_t size_bytes)
    : sizeBytes_(size_bytes)
{
    std::size_t entries = size_bytes * 4; // 2-bit counters
    if (!isPowerOf2(entries))
        stsim_fatal("gshare size %zu B yields non-power-of-2 entries",
                    size_bytes);
    histBits_ = floorLog2(entries);
    // Initialize counters weakly taken (2), the usual cold-start choice.
    pht_.assign(entries, SatCounter(2, 2));
}

std::size_t
Gshare::index(Addr pc, std::uint64_t hist) const
{
    return static_cast<std::size_t>(((pc >> 2) ^ hist) &
                                    lowMask(histBits_));
}

DirectionPredictor::Prediction
Gshare::predict(Addr pc, std::uint64_t hist)
{
    const SatCounter &c = pht_[index(pc, hist)];
    return {c.isTaken(), static_cast<std::uint8_t>(c.value()),
            static_cast<std::uint8_t>(c.maxValue())};
}

void
Gshare::update(Addr pc, std::uint64_t hist, bool taken)
{
    SatCounter &c = pht_[index(pc, hist)];
    if (taken)
        c.increment();
    else
        c.decrement();
}

void
Gshare::state(serde::StateIO &io)
{
    io.begin("gshare");
    io.counters("pht", pht_);
    io.end("gshare");
}

} // namespace stsim
