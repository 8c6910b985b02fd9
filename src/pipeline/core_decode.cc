/**
 * @file
 * Decode and dispatch stages: the in-order middle of the machine.
 * Decode models the (possibly throttled) decode/rename pipe; dispatch
 * allocates RUU/LSQ entries and resolves register dependences.
 */

#include "common/logging.hh"
#include "core.hh"

namespace stsim
{

void
Core::decodeStage()
{
    const bool gated = !deps_.controller->decodeActive(now_);
    const InstSeq barrier = deps_.controller->decodeBarrier();
    if (gated)
        ++stats_.decodeThrottled;

    unsigned n = 0;
    unsigned rename_cnt = 0, rename_wrong = 0;
    unsigned reg_cnt = 0, reg_wrong = 0;
    while (n < cfg_.decodeWidth && !fetchQ_.empty()) {
        std::uint32_t slot = fetchQ_.front();
        DynInst &di = inst(slot);
        if (di.decodeReady > now_)
            break;
        if (dispatchQ_.size() >= dispatchQCap_)
            break;
        // Decode throttling gates only instructions younger than the
        // triggering branch; the trigger itself must drain so it can
        // resolve and release the gate.
        if (gated && barrier != kInvalidSeq && di.seq > barrier)
            break;
        fetchQ_.pop_front();

        const bool wp = di.wrongPath;
        // Oracle decode: wrong-path instructions keep flowing (fetch
        // and queue occupancy stay realistic) but spend no decode or
        // downstream energy and never issue -- the machine "knows"
        // not to process them (Figure 1's oracle decode experiment).
        const bool suppress =
            cfg_.oracle == OracleMode::OracleDecode && wp;
        if (suppress)
            ++stats_.oracleDecodeDrops;

        ++stats_.decodedInsts;
        if (wp)
            ++stats_.decodedWrongPath;
        ++n;

        if (!suppress) {
            ++rename_cnt;
            rename_wrong += wp ? 1 : 0;
            unsigned nsrc = (di.ti.srcDist[0] ? 1u : 0u) +
                            (di.ti.srcDist[1] ? 1u : 0u);
            // Operand read at decode (Wattch accounting). Counts are
            // small integers, so the per-cycle batch sums are exact
            // and the recorded activity is bit-identical to the
            // per-instruction calls it replaces.
            reg_cnt += nsrc;
            reg_wrong += wp ? nsrc : 0;
        }

        di.dispatchReady = now_ + cfg_.decodeStages;
        dispatchQ_.push_back(slot);
    }
    if (rename_cnt)
        deps_.power->record(PUnit::Rename, rename_cnt, rename_wrong);
    if (reg_cnt)
        deps_.power->record(PUnit::Regfile, reg_cnt, reg_wrong);
}

void
Core::dispatchStage()
{
    unsigned n = 0;
    unsigned win_cnt = 0, win_wrong = 0;
    while (n < cfg_.decodeWidth && !dispatchQ_.empty()) {
        std::uint32_t slot = dispatchQ_.front();
        DynInst &di = inst(slot);
        if (di.dispatchReady > now_)
            break;
        if (rob_.size() >= cfg_.ruuSize) {
            ++stats_.robFullStalls;
            break;
        }
        if (isMemory(di.ti.cls) && lsq_.size() >= cfg_.lsqSize) {
            ++stats_.lsqFullStalls;
            break;
        }
        dispatchQ_.pop_front();

        const bool wp = di.wrongPath;
        di.inWindow = true;
        di.fu = fuTypeFor(di.ti.cls);
        di.windowPos = robBasePos_ + rob_.size();
        rob_.push_back(slot);
        if (isMemory(di.ti.cls)) {
            di.lsqPos = lsqBasePos_ + lsq_.size();
            lsq_.push_back(slot);
            if (di.ti.isStore())
                unknownStoreMask_.set(di.lsqPos);
        }

        // Resolve register dependences: the producer's seq is
        // seq - srcDist. Dispatch is in order, so a producer that is no
        // longer in flight has committed or been squashed, and its
        // value is ready like that of a completed one.
        di.waitingOn = 0;
        for (int k = 0; k < 2; ++k) {
            unsigned d = di.ti.srcDist[k];
            if (!d || d >= di.seq)
                continue;
            auto ps = slotOf(di.seq - d);
            if (!ps || !inst(*ps).ti.hasDest || inst(*ps).completed) {
                ++hot_.dispatchSrcReady;
                continue;
            }
            ++hot_.dispatchSrcWaiting;
            inst(*ps).addConsumer(di.seq);
            ++di.waitingOn;
        }

        if (!(cfg_.oracle == OracleMode::OracleDecode && wp)) {
            ++win_cnt;
            win_wrong += wp ? 1 : 0;
        }
        ++stats_.dispatchedInsts;
        if (wp)
            ++stats_.dispatchedWrongPath;
        ++n;

        // The window position may be reused after a squash: write the
        // ready bit unconditionally so no stale state survives.
        if (di.waitingOn == 0 && !oracleBlocked(di))
            readyMask_.set(di.windowPos);
        else
            readyMask_.clear(di.windowPos);
    }
    if (win_cnt)
        deps_.power->record(PUnit::Window, win_cnt, win_wrong);
}

} // namespace stsim
