#include "core.hh"

#include "common/logging.hh"

namespace stsim
{

Core::Core(const CoreConfig &cfg, const Deps &deps)
    : cfg_(cfg),
      deps_(deps),
      fuPool_(cfg)
{
    cfg_.validate();
    stsim_assert(deps_.workload && deps_.bpred && deps_.memory &&
                     deps_.power && deps_.controller,
                 "core is missing a collaborator");
    if (deps_.controller->config().mode != SpecControlMode::None) {
        stsim_assert(deps_.confidence,
                     "speculation control requires a confidence estimator");
        stsim_assert(cfg_.oracle == OracleMode::None,
                     "oracle modes and speculation control are exclusive");
    }

    fetchQCap_ = static_cast<std::size_t>(cfg_.fetchWidth) *
                 (cfg_.fetchStages + 1);
    dispatchQCap_ = static_cast<std::size_t>(cfg_.decodeWidth) *
                    (cfg_.decodeStages + 1);

    std::size_t pool = fetchQCap_ + dispatchQCap_ + cfg_.ruuSize + 8;
    slots_.resize(pool);
    freeSlots_.reserve(pool);
    for (std::size_t i = pool; i > 0; --i)
        freeSlots_.push_back(static_cast<std::uint32_t>(i - 1));

    // seqSlot_ ring: starts comfortably larger than the slot pool and
    // grows whenever an insert would evict a live instruction's entry
    // (possible when repeated mispredict-squash-refetch waves run up
    // nextSeq_ while an old long-latency instruction is still in
    // flight), so slotOf stays exact without a sizing proof. Vacant
    // cells hold slot 0: slotOf's validation against the slot's own
    // seq rejects them.
    seqSlot_.init(pool + 512, 0);

    fetchQ_.init(fetchQCap_ + 1);
    dispatchQ_.init(dispatchQCap_ + 1);
    rob_.init(cfg_.ruuSize + 1);
    lsq_.init(cfg_.lsqSize + 1);

    // Position masks: the window never holds more than ruuSize
    // entries and the LSQ never more than lsqSize, so a pow2 bit ring
    // of at least that many positions is collision free (LSQ position
    // order == seq order for memory ops).
    readyMask_.init(cfg_.ruuSize);
    unknownStoreMask_.init(cfg_.lsqSize);
    storeAddrMask_.init(cfg_.lsqSize);
    blockedLoadMask_.init(cfg_.lsqSize);

    // Writeback calendar: covers the longest completion latency (FU +
    // L1 + L2 + memory + TLB walk) plus drain lag; grows on demand.
    wbCal_.resize(256);
    wbCalMask_ = wbCal_.size() - 1;

    fetchPc_ = deps_.workload->program().codeBase();
}

void
Core::wbPush(Cycle at, InstSeq seq)
{
    stsim_dbg_assert(at > now_, "writeback scheduled in the past");
    for (;;) {
        WbBucket &b = wbCal_[at & wbCalMask_];
        if (b.pending() && b.cycle != at) {
            growWbCal(); // cell still busy with another cycle's events
            continue;
        }
        if (!b.pending()) {
            b.clear();
            b.cycle = at;
        }
        stsim_dbg_assert(!b.sorted, "push into a draining bucket");
        b.ev.push_back(seq);
        ++wbCount_;
        return;
    }
}

void
Core::growWbCal()
{
    std::vector<WbBucket> old = std::move(wbCal_);
    std::size_t cap = old.size();
    for (;;) {
        cap <<= 1;
        wbCal_.assign(cap, WbBucket{});
        wbCalMask_ = cap - 1;
        bool ok = true;
        for (const WbBucket &b : old) {
            if (!b.pending())
                continue;
            WbBucket &n = wbCal_[b.cycle & wbCalMask_];
            if (n.pending()) {
                ok = false; // pending cycles still alias: re-double
                break;
            }
            n.cycle = b.cycle;
            n.ev.assign(b.ev.begin() + b.head, b.ev.end());
            n.head = 0;
            n.sorted = b.sorted;
        }
        if (ok)
            return;
    }
}

void
Core::tick()
{
    deps_.power->beginCycle();
    fuPool_.newCycle();

    commitStage();
    writebackStage();
    issueStage();
    dispatchStage();
    decodeStage();
    fetchStage();

    deps_.controller->tickStats(now_);
    deps_.power->endCycle();
    ++stats_.cycles;
    ++now_;

    if (inflightCount_ != 0 && now_ - lastCommitCycle_ > 100000) {
        stsim_panic("no commit for 100000 cycles at cycle %llu "
                    "(inflight=%zu rob=%zu fetchQ=%zu mode=%d)",
                    static_cast<unsigned long long>(now_),
                    inflightCount_, rob_.size(), fetchQ_.size(),
                    static_cast<int>(fetchMode_));
    }
}

void
Core::wakeConsumers(DynInst &producer)
{
    unsigned cam_cnt = 0, cam_wrong = 0;
    producer.forEachConsumer([&](InstSeq cs) {
        auto slot = slotOf(cs);
        if (!slot)
            return; // consumer squashed
        DynInst &c = inst(*slot);
        if (!c.inWindow || c.issued || c.waitingOn == 0)
            return;
        --c.waitingOn;
        // Wakeup CAM match in the window (oracle decode spends no
        // energy on wrong-path entries at all).
        if (!(cfg_.oracle == OracleMode::OracleDecode && c.wrongPath)) {
            ++cam_cnt;
            cam_wrong += c.wrongPath ? 1 : 0;
        }
        if (c.waitingOn == 0 && !oracleBlocked(c))
            readyMask_.set(c.windowPos);
    });
    producer.clearConsumers();
    if (cam_cnt) // exact integer batch of the per-match records
        deps_.power->record(PUnit::Window, cam_cnt, cam_wrong);
}

bool
Core::loadMayIssue(const DynInst &di)
{
    // The load may issue when no older store still has an unknown
    // address: one find-first over the unknown-store mask, bounded by
    // the load's own LSQ position (LSQ position order == seq order).
    return unknownStoreMask_.firstSet(lsqBasePos_, di.lsqPos) ==
           ScanMask::kNone;
}

bool
Core::tryForward(const DynInst &load)
{
    if (storeAddrMask_.none())
        return false; // no store in the window has a known address
    const Addr word = load.ti.memAddr >> 3;
    // ctz walk over address-ready stores older than the load (the old
    // path scanned every LSQ entry below the load).
    std::uint64_t pos = lsqBasePos_;
    while ((pos = storeAddrMask_.firstSet(pos, load.lsqPos)) !=
           ScanMask::kNone) {
        const DynInst &e = slots_[lsq_[pos - lsqBasePos_]];
        if ((e.ti.memAddr >> 3) == word)
            return true;
        ++pos;
    }
    return false;
}

void
Core::releaseBlockedLoads()
{
    if (blockedLoadMask_.none())
        return;
    // Blocked loads strictly older than the oldest unknown-address
    // store wake up; with no unknown store left, all of them do.
    const std::uint64_t lsq_end = lsqBasePos_ + lsq_.size();
    std::uint64_t limit = unknownStoreMask_.firstSet(lsqBasePos_,
                                                     lsq_end);
    if (limit == ScanMask::kNone)
        limit = lsq_end;
    std::uint64_t pos = lsqBasePos_;
    while ((pos = blockedLoadMask_.firstSet(pos, limit)) !=
           ScanMask::kNone) {
        blockedLoadMask_.clear(pos);
        readyMask_.set(slots_[lsq_[pos - lsqBasePos_]].windowPos);
        ++pos;
    }
}

} // namespace stsim
