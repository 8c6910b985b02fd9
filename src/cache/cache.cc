#include "cache.hh"

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "core/state_serde.hh"

namespace stsim
{

void
CacheConfig::validate() const
{
    // Power-of-two lines and ways give power-of-two sets.
    const char *level = name.c_str();
    checkField(level, "sizeBytes", sizeBytes, 64, 16 << 20, true);
    checkField(level, "ways", ways, 1, 64, true);
    checkField(level, "lineBytes", lineBytes, 4, 4096, true);
    checkField(level, "hitLatency", hitLatency, 1, kMaxLatency);
}

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
    mruWay_.resize(numSets_);
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
Cache::state(serde::StateIO &io)
{
    io.begin("cache");
    std::string name = cfg_.name;
    io.str("name", name);
    if (name != cfg_.name)
        stsim_fatal("state: cache name mismatch (snapshot '%s', "
                    "configured '%s')",
                    name.c_str(), cfg_.name.c_str());
    io.column("tag", lines_, &Line::tag);
    io.column("last_use", lines_, &Line::lastUse);
    io.each(
        "flags", lines_, 3,
        [](const Line &l) { return l.valid | l.wrongPathFill << 1; },
        [](Line &l, std::uint64_t f) {
            l.valid = f & 1;
            l.wrongPathFill = f & 2;
        });
    // access() and probe() index the set's ways with mru_way.
    io.fixed("mru_way", mruWay_, cfg_.ways - 1);
    io.u64("use_clock", useClock_);
    io.u64("accesses", accesses_);
    io.u64("misses", misses_);
    io.u64("wrong_path_accesses", wrongPathAccesses_);
    io.u64("pollution_evictions", pollutionEvictions_);
    io.end("cache");
}

} // namespace stsim
