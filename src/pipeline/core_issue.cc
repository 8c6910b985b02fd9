/**
 * @file
 * Issue/select and writeback stages. Issue pops ready instructions in
 * age order subject to issue width, FU availability, memory ordering
 * and the selection-throttling barrier (the paper's no-select bit,
 * Figure 2). Writeback completes executions, drives the result bus and
 * wakeup network, resolves branches and triggers recovery.
 */

#include <algorithm>

#include "common/logging.hh"
#include "core.hh"

namespace stsim
{

void
Core::issueStage()
{
    unsigned issued = 0;
    unsigned exec_cnt = 0, exec_wrong = 0; // Window read + ALU pairs
    const InstSeq barrier = deps_.controller->noSelectBarrier();

    // Walk ready window positions oldest-first. Entries skipped for
    // structural reasons simply keep their ready bit; issued and
    // store-blocked entries clear it.
    std::uint64_t pos = robBasePos_;
    const std::uint64_t end = robBasePos_ + rob_.size();

    while (issued < cfg_.issueWidth &&
           (pos = readyMask_.firstSet(pos, end)) != ScanMask::kNone) {
        DynInst &di = inst(rob_[pos - robBasePos_]);
        stsim_dbg_assert(di.inWindow && !di.issued && !di.waitingOn,
                     "stale ready bit for seq %llu",
                     static_cast<unsigned long long>(di.seq));

        // Selection throttling: entries younger than the oldest
        // outstanding no-select branch keep their request line low.
        // The walk is in age order, so every remaining entry is also
        // younger: stop selecting.
        if (barrier != kInvalidSeq && di.seq > barrier) {
            ++stats_.noSelectSkips;
            break;
        }

        // FU class cached at dispatch: deferred retries (FU-starved
        // entries revisited every cycle) no longer recompute it.
        const FuType fu = di.fu;
        if (!fuPool_.available(fu)) {
            ++pos; // deferred: bit stays set for a later cycle
            continue;
        }

        if (di.ti.isLoad() && !loadMayIssue(di)) {
            ++stats_.loadsBlockedByStore;
            blockedLoadMask_.set(di.lsqPos);
            readyMask_.clear(di.windowPos);
            ++pos;
            continue;
        }

        // Issue.
        fuPool_.claim(fu);
        di.issued = true;
        readyMask_.clear(di.windowPos);
        ++pos;
        ++issued;
        ++stats_.issuedInsts;
        const bool wp = di.wrongPath;
        if (wp) {
            ++stats_.issuedWrongPath;
            ++exec_wrong;
        }
        ++exec_cnt; // operand read + ALU, batched below

        unsigned lat =
            CoreConfig::baseLatency(di.ti.cls) + cfg_.extraExecLatency;
        if (di.ti.isLoad()) {
            deps_.power->record(PUnit::Lsq, 1, wp ? 1 : 0);
            if (tryForward(di)) {
                ++stats_.loadsForwarded;
                lat += 1;
            } else {
                auto r = deps_.memory->accessData(di.ti.memAddr, false,
                                                  wp);
                deps_.power->record(PUnit::DCache, 1, wp ? 1 : 0);
                if (r.l2Accessed)
                    deps_.power->record(PUnit::DCache2, 1, wp ? 1 : 0);
                lat += r.latency;
            }
        } else if (di.ti.isStore()) {
            // Address generation; the cache write happens at commit.
            deps_.power->record(PUnit::Lsq, 1, wp ? 1 : 0);
        }

        di.completeAt = now_ + lat;
        wbPush(di.completeAt, di.seq);
    }
    if (exec_cnt) {
        deps_.power->record(PUnit::Window, exec_cnt, exec_wrong);
        deps_.power->record(PUnit::Alu, exec_cnt, exec_wrong);
    }
}

void
Core::writebackStage()
{
    unsigned done = 0;
    while (wbCount_ && wbCursor_ <= now_ && done < cfg_.issueWidth) {
        WbBucket &b = wbCal_[wbCursor_ & wbCalMask_];
        if (!b.pending() || b.cycle != wbCursor_) {
            ++wbCursor_; // empty cycle (cell may hold a future one)
            continue;
        }
        if (!b.sorted) {
            // First drain of this cycle's bucket: order by seq so the
            // (cycle, seq) completion order matches the old heap's.
            // Buckets are near-sorted (same-cycle issues push in seq
            // order), so insertion sort beats std::sort at pipe sizes.
            if (b.ev.size() <= 24) {
                for (std::size_t i = 1; i < b.ev.size(); ++i) {
                    InstSeq v = b.ev[i];
                    std::size_t j = i;
                    for (; j > 0 && b.ev[j - 1] > v; --j)
                        b.ev[j] = b.ev[j - 1];
                    b.ev[j] = v;
                }
            } else {
                std::sort(b.ev.begin(), b.ev.end());
            }
            b.sorted = true;
        }

        while (b.pending() && done < cfg_.issueWidth) {
            InstSeq seq = b.ev[b.head];
            auto slot = slotOf(seq);
            if (!slot) {
                ++b.head; // squashed in flight
                --wbCount_;
                continue;
            }
            ++b.head;
            --wbCount_;
            completeInst(inst(*slot));
            ++done;
        }
        if (!b.pending()) {
            b.clear();
            ++wbCursor_;
        }
    }
}

void
Core::completeInst(DynInst &di)
{
    stsim_dbg_assert(di.issued && !di.completed,
                 "bogus writeback event for seq %llu",
                 static_cast<unsigned long long>(di.seq));
    di.completed = true;
    deps_.power->record(PUnit::ResultBus, 1, di.wrongPath ? 1 : 0);

    wakeConsumers(di);

    if (di.ti.isStore()) {
        di.addrReady = true;
        unknownStoreMask_.clear(di.lsqPos);
        storeAddrMask_.set(di.lsqPos);
        releaseBlockedLoads();
    }

    if (di.ti.isBranch()) {
        // Resolution: release any throttling heuristic this branch
        // triggered, then recover if it was mispredicted.
        if (di.confAssigned)
            deps_.controller->onBranchResolved(di.seq);
        if (di.seq == guardBranchSeq_)
            resolveGuardBranch(di);
    }
}

} // namespace stsim
