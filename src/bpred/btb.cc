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
Btb::saveState(serde::StateWriter &w) const
{
    w.begin("btb");
    std::vector<std::uint64_t> valid(entries_.size());
    std::vector<std::uint64_t> tag(entries_.size());
    std::vector<std::uint64_t> target(entries_.size());
    std::vector<std::uint64_t> lastUse(entries_.size());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        valid[i] = entries_[i].valid ? 1 : 0;
        tag[i] = entries_[i].tag;
        target[i] = entries_[i].target;
        lastUse[i] = entries_[i].lastUse;
    }
    w.u64Vec("valid", valid);
    w.u64Vec("tag", tag);
    w.u64Vec("target", target);
    w.u64Vec("last_use", lastUse);
    w.u64("use_clock", useClock_);
    w.u64("lookups", lookups_);
    w.u64("hits", hits_);
    w.end("btb");
}

void
Btb::loadState(serde::StateReader &r)
{
    r.begin("btb");
    const std::size_t n = entries_.size();
    std::vector<std::uint64_t> valid = r.u64Vec("valid", n, 1);
    std::vector<std::uint64_t> tag = r.u64Vec("tag", n);
    std::vector<std::uint64_t> target = r.u64Vec("target", n);
    std::vector<std::uint64_t> lastUse = r.u64Vec("last_use", n);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        entries_[i].valid = valid[i] != 0;
        entries_[i].tag = tag[i];
        entries_[i].target = target[i];
        entries_[i].lastUse = lastUse[i];
    }
    useClock_ = r.u64("use_clock");
    lookups_ = r.u64("lookups");
    hits_ = r.u64("hits");
    r.end("btb");
}

} // namespace stsim
