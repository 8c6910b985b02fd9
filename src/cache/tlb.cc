#include "tlb.hh"

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "core/state_serde.hh"

namespace stsim
{

Tlb::Tlb(std::size_t entries, std::size_t page_bytes,
         unsigned miss_penalty)
    : capacity_(entries),
      missPenalty_(miss_penalty)
{
    if (!isPowerOf2(page_bytes))
        stsim_fatal("TLB page size must be a power of two");
    stsim_assert(entries >= 1, "empty TLB");
    pageBits_ = floorLog2(page_bytes);
    entries_.reserve(capacity_);
    vpnIndex_.reserve(capacity_ * 2);
}

bool
Tlb::access(Addr vaddr)
{
    ++accesses_;
    Addr vpn = vaddr >> pageBits_;

    auto it = vpnIndex_.find(vpn);
    if (it != vpnIndex_.end()) {
        entries_[it->second].lastUse = ++useClock_;
        return true;
    }

    ++misses_;
    std::uint32_t slot;
    if (entries_.size() < capacity_) {
        slot = static_cast<std::uint32_t>(entries_.size());
        entries_.push_back(Entry{});
    } else {
        // Exact LRU victim; the scan runs only on misses.
        slot = 0;
        for (std::uint32_t i = 1; i < entries_.size(); ++i) {
            if (entries_[i].lastUse < entries_[slot].lastUse)
                slot = i;
        }
        vpnIndex_.erase(entries_[slot].vpn);
    }
    entries_[slot].vpn = vpn;
    entries_[slot].lastUse = ++useClock_;
    vpnIndex_.emplace(vpn, slot);
    return false;
}

void
Tlb::saveState(serde::StateWriter &w) const
{
    w.begin("tlb");
    std::vector<std::uint64_t> vpn(entries_.size());
    std::vector<std::uint64_t> lastUse(entries_.size());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        vpn[i] = entries_[i].vpn;
        lastUse[i] = entries_[i].lastUse;
    }
    w.u64Vec("vpn", vpn);
    w.u64Vec("last_use", lastUse);
    w.u64("use_clock", useClock_);
    w.u64("accesses", accesses_);
    w.u64("misses", misses_);
    w.end("tlb");
}

void
Tlb::loadState(serde::StateReader &r)
{
    r.begin("tlb");
    std::vector<std::uint64_t> vpn = r.u64Vec("vpn");
    std::vector<std::uint64_t> lastUse = r.u64Vec("last_use", vpn.size());
    if (vpn.size() > capacity_)
        stsim_fatal("state: TLB snapshot has %zu entries but only %zu "
                    "fit",
                    vpn.size(), capacity_);
    entries_.clear();
    vpnIndex_.clear();
    for (std::size_t i = 0; i < vpn.size(); ++i) {
        entries_.push_back(Entry{vpn[i], lastUse[i]});
        vpnIndex_.emplace(vpn[i], static_cast<std::uint32_t>(i));
    }
    useClock_ = r.u64("use_clock");
    accesses_ = r.u64("accesses");
    misses_ = r.u64("misses");
    r.end("tlb");
}

} // namespace stsim
