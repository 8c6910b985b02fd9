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
Tlb::state(serde::StateIO &io)
{
    io.begin("tlb");
    io.vec("vpn", entries_, &Entry::vpn);
    io.column("last_use", entries_, &Entry::lastUse);
    if (io.loading()) {
        if (entries_.size() > capacity_)
            stsim_fatal("state: TLB snapshot has %zu entries but only "
                        "%zu fit",
                        entries_.size(), capacity_);
        // access() maps each page to one entry, so no two share one.
        vpnIndex_.clear();
        for (std::uint32_t i = 0; i < entries_.size(); ++i)
            if (!vpnIndex_.emplace(entries_[i].vpn, i).second)
                stsim_fatal("state: TLB lists page %llu twice",
                            static_cast<unsigned long long>(
                                entries_[i].vpn));
    }
    io.u64("use_clock", useClock_);
    io.u64("accesses", accesses_);
    io.u64("misses", misses_);
    io.end("tlb");
}

} // namespace stsim
