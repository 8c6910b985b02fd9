/**
 * @file
 * Commit stage, squash/recovery and misprediction resolution.
 */

#include "common/logging.hh"
#include "core.hh"

namespace stsim
{

void
Core::commitStage()
{
    unsigned n = 0;
    unsigned reg_writes = 0;
    while (n < cfg_.commitWidth && !rob_.empty()) {
        std::uint32_t slot = rob_.front();
        DynInst &di = inst(slot);
        if (!di.completed)
            break;
        stsim_dbg_assert(!di.wrongPath,
                     "wrong-path instruction reached commit");
        rob_.pop_front();
        ++robBasePos_;
        if (isMemory(di.ti.cls)) {
            stsim_dbg_assert(!lsq_.empty() && lsq_.front() == slot,
                         "LSQ out of sync at commit");
            lsq_.pop_front();
            ++lsqBasePos_;
            if (di.ti.isStore()) {
                --readyStores_; // committed stores had known addresses
                storeAddrMask_.clear(di.lsqPos);
            }
        }

        if (di.ti.isStore()) {
            // Stores write the cache at commit (write-allocate).
            auto r = deps_.memory->accessData(di.ti.memAddr, true,
                                              false);
            deps_.power->record(PUnit::DCache, 1, 0);
            if (r.l2Accessed)
                deps_.power->record(PUnit::DCache2, 1, 0);
        }
        if (di.ti.hasDest)
            ++reg_writes; // batched below (exact integer counts)

        if (di.ti.isBranch()) {
            deps_.bpred->commitUpdate(di.ti, di.pred);
            ++stats_.committedBranches;
            if (di.ti.isCondBranch()) {
                ++stats_.committedCondBranches;
                bool correct = di.pred.predTaken == di.ti.taken;
                if (!correct)
                    ++stats_.condMispredicts;
                if (di.confAssigned) {
                    confMetrics_.record(di.conf, correct);
                    deps_.confidence->update(di.ti.pc,
                                             di.pred.histBefore,
                                             correct);
                }
            }
        }

        ++stats_.committedInsts;
        ++n;
        lastCommitCycle_ = now_;
        freeSlot(slot);
    }
    if (reg_writes)
        deps_.power->record(PUnit::Regfile, reg_writes, 0);
}

void
Core::squashAfter(InstSeq seq)
{
    ++stats_.squashes;

    // LSQ first: its slots are shared with the ROB, so only unlink.
    // Every per-position mask bit dies with its entry here, so no
    // stale bit can survive into a reused position.
    while (!lsq_.empty() && inst(lsq_.back()).seq > seq) {
        const DynInst &e = inst(lsq_.back());
        if (e.ti.isStore()) {
            if (e.addrReady) {
                --readyStores_; // wrong-path store that had completed
                storeAddrMask_.clear(e.lsqPos);
            } else {
                unknownStoreMask_.clear(e.lsqPos);
            }
        } else {
            blockedLoadMask_.clear(e.lsqPos);
        }
        lsq_.pop_back();
    }

    auto drop_young = [&](SlotRing &q) {
        while (!q.empty() && inst(q.back()).seq > seq) {
            std::uint32_t slot = q.back();
            q.pop_back();
            DynInst &di = inst(slot);
            if (di.inWindow)
                clearReady(di); // position will be reused
            ++stats_.squashedInsts;
            freeSlot(slot);
        }
    };
    drop_young(fetchQ_);
    drop_young(dispatchQ_);
    drop_young(rob_);

    // Writeback-calendar events are validated lazily against the slot
    // pool (slotOf).

    deps_.controller->squashYoungerThan(seq);
    releaseBlockedLoads();
}

void
Core::resolveGuardBranch(DynInst &branch)
{
    stsim_assert(branch.seq == guardBranchSeq_, "guard mismatch");

    // Repair speculative predictor state (global history, RAS).
    deps_.bpred->squashRestore(branch.ti, branch.pred);

    if (fetchMode_ == FetchMode::WrongPath)
        squashAfter(branch.seq);
    // In WaitBranch mode (oracle fetch / garbage target) nothing
    // younger was fetched, so there is nothing to squash.

    fetchMode_ = FetchMode::CorrectPath;
    wrongCursor_.reset();
    guardBranchSeq_ = kInvalidSeq;
    fetchPc_ = branch.ti.npc;
    Cycle resume = now_ + 1 + cfg_.extraMispredictPenalty;
    if (resume > fetchStallUntil_)
        fetchStallUntil_ = resume;
}

} // namespace stsim
