#include "btb.hh"

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "core/state_serde.hh"

namespace stsim
{

Btb::Btb(std::size_t entries, std::size_t ways)
    : ways_(ways)
{
    if (!isPowerOf2(entries) || ways == 0 || entries % ways != 0)
        stsim_fatal("bad BTB geometry: %zu entries, %zu ways",
                    entries, ways);
    numSets_ = entries / ways;
    if (!isPowerOf2(numSets_))
        stsim_fatal("BTB set count must be a power of two");
    setBits_ = floorLog2(numSets_);
    entries_.resize(entries);
}

std::size_t
Btb::setIndex(Addr pc) const
{
    return static_cast<std::size_t>((pc >> 2) & lowMask(setBits_));
}

std::optional<Addr>
Btb::lookup(Addr pc)
{
    ++lookups_;
    Addr tag = pc >> (2 + setBits_);
    Entry *set = &entries_[setIndex(pc) * ways_];
    for (std::size_t w = 0; w < ways_; ++w) {
        if (set[w].valid && set[w].tag == tag) {
            set[w].lastUse = ++useClock_;
            ++hits_;
            return set[w].target;
        }
    }
    return std::nullopt;
}

void
Btb::update(Addr pc, Addr target)
{
    Addr tag = pc >> (2 + setBits_);
    Entry *set = &entries_[setIndex(pc) * ways_];
    Entry *victim = &set[0];
    for (std::size_t w = 0; w < ways_; ++w) {
        if (set[w].valid && set[w].tag == tag) {
            set[w].target = target;
            set[w].lastUse = ++useClock_;
            return;
        }
        if (!set[w].valid) {
            victim = &set[w];
        } else if (victim->valid && set[w].lastUse < victim->lastUse) {
            victim = &set[w];
        }
    }
    victim->valid = true;
    victim->tag = tag;
    victim->target = target;
    victim->lastUse = ++useClock_;
}

void
Btb::state(serde::StateIO &io)
{
    io.begin("btb");
    io.column("valid", entries_, &Entry::valid);
    io.column("tag", entries_, &Entry::tag);
    io.column("target", entries_, &Entry::target);
    io.column("last_use", entries_, &Entry::lastUse);
    io.u64("use_clock", useClock_);
    io.u64("lookups", lookups_);
    io.u64("hits", hits_);
    io.end("btb");
}

} // namespace stsim
