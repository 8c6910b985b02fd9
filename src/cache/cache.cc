#include "cache.hh"

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "core/state_serde.hh"

namespace stsim
{

Cache::Cache(const CacheConfig &cfg)
    : cfg_(cfg)
{
    if (!isPowerOf2(cfg.lineBytes) || !isPowerOf2(cfg.sizeBytes))
        stsim_fatal("%s: size/line must be powers of two",
                    cfg.name.c_str());
    std::size_t lines = cfg.sizeBytes / cfg.lineBytes;
    if (cfg.ways == 0 || lines % cfg.ways != 0)
        stsim_fatal("%s: bad associativity", cfg.name.c_str());
    numSets_ = lines / cfg.ways;
    if (!isPowerOf2(numSets_))
        stsim_fatal("%s: set count must be a power of two",
                    cfg.name.c_str());
    setBits_ = floorLog2(numSets_);
    lineBits_ = floorLog2(cfg.lineBytes);
    setMask_ = numSets_ - 1;
    lines_.resize(lines);
    mruWay_.assign(numSets_, 0);
}

bool
Cache::access(Addr addr, bool /*is_write*/, bool wrong_path)
{
    ++accesses_;
    if (wrong_path)
        ++wrongPathAccesses_;

    Addr line_addr = addr >> lineBits_;
    std::size_t set = static_cast<std::size_t>(line_addr & setMask_);
    Addr tag = line_addr >> setBits_;
    Line *ways = &lines_[set * cfg_.ways];

    // MRU fast path: hot lines hit the same way they hit last time.
    Line &mru = ways[mruWay_[set]];
    if (mru.valid && mru.tag == tag) {
        mru.lastUse = ++useClock_;
        if (!wrong_path)
            mru.wrongPathFill = false;
        return true;
    }

    // Hit/victim scan in one pass: the victim is the last invalid
    // way, else true-LRU among the valid ones.
    Line *victim = &ways[0];
    for (std::size_t w = 0; w < cfg_.ways; ++w) {
        if (ways[w].valid && ways[w].tag == tag) {
            ways[w].lastUse = ++useClock_;
            if (!wrong_path)
                ways[w].wrongPathFill = false;
            mruWay_[set] = static_cast<std::uint8_t>(w);
            return true;
        }
        if (!ways[w].valid)
            victim = &ways[w];
        else if (victim->valid && ways[w].lastUse < victim->lastUse)
            victim = &ways[w];
    }

    // Miss: allocate into the victim way.
    ++misses_;
    if (wrong_path && victim->valid && !victim->wrongPathFill)
        ++pollutionEvictions_;
    victim->valid = true;
    victim->tag = tag;
    victim->wrongPathFill = wrong_path;
    victim->lastUse = ++useClock_;
    mruWay_[set] = static_cast<std::uint8_t>(victim - ways);
    return false;
}

bool
Cache::probe(Addr addr) const
{
    Addr line_addr = addr >> lineBits_;
    std::size_t set = static_cast<std::size_t>(line_addr & setMask_);
    Addr tag = line_addr >> setBits_;
    const Line *ways = &lines_[set * cfg_.ways];
    const Line &mru = ways[mruWay_[set]];
    if (mru.valid && mru.tag == tag)
        return true;
    for (std::size_t w = 0; w < cfg_.ways; ++w)
        if (ways[w].valid && ways[w].tag == tag)
            return true;
    return false;
}

void
Cache::saveState(serde::StateWriter &w) const
{
    w.begin("cache");
    w.str("name", cfg_.name);
    std::vector<std::uint64_t> tag(lines_.size());
    std::vector<std::uint64_t> lastUse(lines_.size());
    std::vector<std::uint64_t> flags(lines_.size());
    for (std::size_t i = 0; i < lines_.size(); ++i) {
        tag[i] = lines_[i].tag;
        lastUse[i] = lines_[i].lastUse;
        flags[i] = (lines_[i].valid ? 1u : 0u) |
                   (lines_[i].wrongPathFill ? 2u : 0u);
    }
    w.u64Vec("tag", tag);
    w.u64Vec("last_use", lastUse);
    w.u64Vec("flags", flags);
    w.u64Vec("mru_way", mruWay_);
    w.u64("use_clock", useClock_);
    w.u64("accesses", accesses_);
    w.u64("misses", misses_);
    w.u64("wrong_path_accesses", wrongPathAccesses_);
    w.u64("pollution_evictions", pollutionEvictions_);
    w.end("cache");
}

void
Cache::loadState(serde::StateReader &r)
{
    r.begin("cache");
    std::string name = r.str("name");
    if (name != cfg_.name)
        stsim_fatal("state: cache name mismatch (snapshot '%s', "
                    "configured '%s')",
                    name.c_str(), cfg_.name.c_str());
    std::vector<std::uint64_t> tag = r.u64Vec("tag", lines_.size());
    std::vector<std::uint64_t> lastUse =
        r.u64Vec("last_use", lines_.size());
    std::vector<std::uint64_t> flags = r.u64Vec("flags", lines_.size());
    std::vector<std::uint64_t> mru = r.u64Vec("mru_way", mruWay_.size());
    for (std::size_t i = 0; i < lines_.size(); ++i) {
        lines_[i].tag = tag[i];
        lines_[i].lastUse = lastUse[i];
        lines_[i].valid = (flags[i] & 1) != 0;
        lines_[i].wrongPathFill = (flags[i] & 2) != 0;
    }
    // access() and probe() index the set's ways with it.
    for (std::size_t i = 0; i < mruWay_.size(); ++i) {
        if (mru[i] >= cfg_.ways)
            stsim_fatal("state: cache '%s' set %zu mru_way %llu out of "
                        "range (%zu ways)",
                        cfg_.name.c_str(), i,
                        static_cast<unsigned long long>(mru[i]),
                        cfg_.ways);
        mruWay_[i] = static_cast<std::uint8_t>(mru[i]);
    }
    useClock_ = r.u64("use_clock");
    accesses_ = r.u64("accesses");
    misses_ = r.u64("misses");
    wrongPathAccesses_ = r.u64("wrong_path_accesses");
    pollutionEvictions_ = r.u64("pollution_evictions");
    r.end("cache");
}

} // namespace stsim
