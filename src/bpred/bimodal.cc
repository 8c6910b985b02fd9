#include "bimodal.hh"

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "core/state_serde.hh"

namespace stsim
{

Bimodal::Bimodal(std::size_t size_bytes)
    : sizeBytes_(size_bytes)
{
    std::size_t entries = size_bytes * 4;
    if (!isPowerOf2(entries))
        stsim_fatal("bimodal size %zu B yields non-power-of-2 entries",
                    size_bytes);
    indexBits_ = floorLog2(entries);
    pht_.assign(entries, SatCounter(2, 2));
}

DirectionPredictor::Prediction
Bimodal::predict(Addr pc, std::uint64_t /*hist*/)
{
    const SatCounter &c = pht_[(pc >> 2) & lowMask(indexBits_)];
    return {c.isTaken(), static_cast<std::uint8_t>(c.value()),
            static_cast<std::uint8_t>(c.maxValue())};
}

void
Bimodal::update(Addr pc, std::uint64_t /*hist*/, bool taken)
{
    SatCounter &c = pht_[(pc >> 2) & lowMask(indexBits_)];
    if (taken)
        c.increment();
    else
        c.decrement();
}

void
Bimodal::state(serde::StateIO &io)
{
    io.begin("bimodal");
    io.counters("pht", pht_);
    io.end("bimodal");
}

} // namespace stsim
