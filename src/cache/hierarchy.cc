#include "hierarchy.hh"

#include "core/state_serde.hh"

namespace stsim
{

void
MemoryConfig::validate() const
{
    il1.validate();
    dl1.validate();
    l2.validate();
    checkField("memory", "memLatency", memLatency, 1, kMaxLatency);
    checkField("memory", "tlbEntries", tlbEntries, 1, 4096);
    checkField("memory", "pageBytes", pageBytes, 1, 1 << 30, true);
    checkField("memory", "tlbMissPenalty", tlbMissPenalty, 0, kMaxLatency);
    checkField("memory", "dl1ExtraLatency", dl1ExtraLatency, 0,
               kMaxLatency);
}

MemoryHierarchy::MemoryHierarchy(const MemoryConfig &cfg)
    : cfg_(cfg),
      il1_(cfg.il1),
      dl1_(cfg.dl1),
      l2_(cfg.l2),
      dtlb_(cfg.tlbEntries, cfg.pageBytes, cfg.tlbMissPenalty)
{
}

MemAccessResult
MemoryHierarchy::fetchInst(Addr pc, bool wrong_path)
{
    MemAccessResult r;
    r.l1Hit = il1_.access(pc, false, wrong_path);
    r.latency = cfg_.il1.hitLatency;
    if (!r.l1Hit) {
        r.l2Accessed = true;
        r.l2Hit = l2_.access(pc, false, wrong_path);
        r.latency += cfg_.l2.hitLatency;
        if (!r.l2Hit)
            r.latency += cfg_.memLatency;
    }
    return r;
}

MemAccessResult
MemoryHierarchy::accessData(Addr addr, bool is_write, bool wrong_path)
{
    MemAccessResult r;
    r.tlbMiss = !dtlb_.access(addr);
    r.l1Hit = dl1_.access(addr, is_write, wrong_path);
    r.latency = cfg_.dl1.hitLatency + cfg_.dl1ExtraLatency;
    if (!r.l1Hit) {
        r.l2Accessed = true;
        r.l2Hit = l2_.access(addr, is_write, wrong_path);
        r.latency += cfg_.l2.hitLatency;
        if (!r.l2Hit)
            r.latency += cfg_.memLatency;
    }
    if (r.tlbMiss)
        r.latency += dtlb_.missPenalty();
    return r;
}

void
MemoryHierarchy::state(serde::StateIO &io)
{
    io.begin("memory");
    il1_.state(io);
    dl1_.state(io);
    l2_.state(io);
    dtlb_.state(io);
    io.end("memory");
}

} // namespace stsim
