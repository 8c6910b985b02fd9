/**
 * @file
 * Core checkpointing: state(), the one walk over the complete
 * microarchitectural state that saving and restoring share. Kept out
 * of core.cc so the cycle-accurate pipeline stages and the (cold)
 * serialization code do not share a translation unit.
 *
 * Snapshots are taken between ticks, which is what makes the state
 * finite: the FU pool resets at the top of every tick and the power
 * model's per-cycle scratch is consumed by endCycle, so neither is
 * state here. Everything else -- including incidental orderings like
 * the free-slot stack and the writeback-calendar bucket contents -- is
 * preserved exactly, so a restored run is bit-identical to one that
 * never stopped.
 */

#include <algorithm>
#include <vector>

#include "core/state_serde.hh"
#include "pipeline/core.hh"

namespace stsim
{

namespace
{

/** Walk one instruction. @p ras_entries bounds its RAS checkpoint: a
 *  squash writes the RAS at that index. */
void
instState(serde::StateIO &io, DynInst &di, std::size_t ras_entries)
{
    io.begin("inst");
    io.u64("seq", di.seq);
    // The status flags, packed into one word (bit order is ABI).
    bool *const flags[] = {&di.wrongPath,    &di.inWindow,  &di.issued,
                           &di.completed,    &di.predicted, &di.mispredicted,
                           &di.confAssigned, &di.addrReady};
    std::uint8_t packed = 0;
    for (std::size_t i = 0; i < std::size(flags); ++i)
        packed |= static_cast<std::uint8_t>(*flags[i] << i);
    io.u64("flags", packed);
    if (io.loading())
        for (std::size_t i = 0; i < std::size(flags); ++i)
            *flags[i] = (packed >> i) & 1;
    io.u64("waiting_on", di.waitingOn);
    std::vector<InstSeq> cons;
    di.forEachConsumer([&](InstSeq s) { cons.push_back(s); });
    io.vec("consumers", cons);
    if (io.loading()) {
        for (InstSeq s : cons) {
            // A consumer is stored as its 32-bit distance past this seq.
            if (s <= di.seq || s - di.seq >= UINT32_MAX)
                stsim_fatal("state: inst %llu consumer %llu out of range",
                            static_cast<unsigned long long>(di.seq),
                            static_cast<unsigned long long>(s));
            di.addConsumer(s);
        }
    }
    io.u64("pc", di.ti.pc);
    io.u64("cls", di.ti.cls, static_cast<std::uint64_t>(InstClass::Nop));
    io.u64("src0", di.ti.srcDist[0]);
    io.u64("src1", di.ti.srcDist[1]);
    io.boolean("has_dest", di.ti.hasDest);
    io.u64("mem_addr", di.ti.memAddr);
    io.boolean("taken", di.ti.taken);
    io.u64("target", di.ti.target);
    io.u64("npc", di.ti.npc);
    if (io.loading())
        di.fu = fuTypeFor(di.ti.cls); // derived, not serialized
    io.u64("window_pos", di.windowPos);
    io.u64("lsq_pos", di.lsqPos);
    io.u64("decode_ready", di.decodeReady);
    io.u64("dispatch_ready", di.dispatchReady);
    io.u64("complete_at", di.completeAt);
    io.boolean("pred_taken", di.pred.predTaken);
    io.u64("pred_target", di.pred.predTarget);
    io.boolean("btb_hit", di.pred.btbHit);
    io.boolean("dir_taken", di.pred.dir.taken);
    io.u64("dir_counter", di.pred.dir.counter);
    io.u64("dir_counter_max", di.pred.dir.counterMax);
    io.u64("hist_before", di.pred.histBefore);
    io.u64("ras_top", di.pred.rasCp.top);
    if (io.loading() && di.pred.rasCp.top >= ras_entries)
        stsim_fatal("state: inst %llu ras_top %u out of range (%zu RAS "
                    "entries)",
                    static_cast<unsigned long long>(di.seq),
                    di.pred.rasCp.top, ras_entries);
    io.u64("ras_top_value", di.pred.rasCp.topValue);
    io.u64("conf", di.conf, static_cast<std::uint64_t>(ConfLevel::VLC));
    io.end("inst");
}

/**
 * Where a slot stands while a snapshot restores: the list that names
 * it, then the ring that holds it. Restore moves each slot along
 * Unlisted -> Free, or Unlisted -> Live -> one of the three queues,
 * and a ROB slot on to Lsq when the LSQ holds it too; any other move
 * is a corrupt image.
 */
enum class SlotRole : std::uint8_t
{
    Unlisted,
    Free,
    Live,
    FetchQ,
    DispatchQ,
    Rob,
    Lsq,
};

const char *
roleName(SlotRole role)
{
    switch (role) {
      case SlotRole::Unlisted: return "unlisted";
      case SlotRole::Free: return "free";
      case SlotRole::Live: return "live";
      case SlotRole::FetchQ: return "in fetch_q";
      case SlotRole::DispatchQ: return "in dispatch_q";
      case SlotRole::Rob: return "in rob";
      case SlotRole::Lsq: return "in lsq";
    }
    return "?";
}

/** Move slot @p s, named by @p list, from role @p from to @p to. */
void
claimSlot(std::vector<SlotRole> &roles, const char *list,
          std::uint64_t s, SlotRole from, SlotRole to)
{
    const auto slot = static_cast<unsigned long long>(s);
    if (s >= roles.size())
        stsim_fatal("state: %s holds slot %llu beyond the pool (%zu "
                    "slots)",
                    list, slot, roles.size());
    if (roles[s] != from && from == SlotRole::Unlisted)
        stsim_fatal("state: %s holds slot %llu, which is already %s",
                    list, slot, roleName(roles[s]));
    if (roles[s] != from)
        stsim_fatal("state: %s holds slot %llu, which is %s, not %s",
                    list, slot, roleName(roles[s]), roleName(from));
    roles[s] = to;
}

/** Walk ring @p q; on restore each slot it holds moves from role
 *  @p from to @p to. */
void
ringState(serde::StateIO &io, const char *section, SlotRing &q,
          std::vector<SlotRole> &roles, SlotRole from, SlotRole to)
{
    io.begin(section);
    std::uint64_t head = q.headPos();
    io.u64("head", head);
    std::vector<std::uint32_t> items;
    for (std::size_t i = 0; i < q.size(); ++i)
        items.push_back(q[i]);
    io.vec("items", items);
    if (io.loading()) {
        q.restartAt(head);
        for (std::uint32_t s : items) {
            claimSlot(roles, section, s, from, to);
            q.push_back(s);
        }
    }
    io.end(section);
}

} // namespace

void
Core::state(serde::StateIO &io)
{
    io.begin("core");
    io.u64("now", now_);
    io.u64("last_commit_cycle", lastCommitCycle_);
    io.u64("next_seq", nextSeq_);
    io.begin("core_stats");
    std::vector<Counter *> stats;
    visitFields(stats_,
                [&](const char *, Counter &c) { stats.push_back(&c); });
    io.column("counters", stats, [](Counter *c) -> Counter & { return *c; });
    io.end("core_stats");
    confMetrics_.state(io);

    // Slot pool: the free stack in its exact order (allocation order
    // after restore must match), then every live slot's instruction.
    std::uint64_t pool = slots_.size();
    io.u64("pool_size", pool);
    if (pool != slots_.size())
        stsim_fatal("state: core slot pool mismatch (snapshot %llu, "
                    "configured %zu) -- snapshot is for a different "
                    "core config",
                    static_cast<unsigned long long>(pool),
                    slots_.size());
    io.vec("free_slots", freeSlots_);
    // The live slots are the ones the free list does not name; on
    // restore, with the counts adding up, naming each slot once makes
    // the two lists a partition of the pool.
    std::vector<SlotRole> roles(slots_.size(), SlotRole::Unlisted);
    for (std::uint32_t s : freeSlots_)
        claimSlot(roles, "free_slots", s, SlotRole::Unlisted,
                  SlotRole::Free);
    std::vector<std::uint32_t> live;
    for (std::uint32_t s = 0; s < slots_.size(); ++s)
        if (roles[s] == SlotRole::Unlisted)
            live.push_back(s);
    io.vec("live_slots", live);
    if (io.loading()) {
        if (freeSlots_.size() + live.size() != slots_.size())
            stsim_fatal("state: core slot partition mismatch (%zu free "
                        "+ %zu live != %zu)",
                        freeSlots_.size(), live.size(), slots_.size());
        for (std::uint32_t s : live)
            claimSlot(roles, "live_slots", s, SlotRole::Unlisted,
                      SlotRole::Live);
        for (DynInst &di : slots_) {
            di.reset();
            di.seq = kInvalidSeq;
        }
    }
    for (std::uint32_t s : live)
        instState(io, slots_[s], deps_.bpred->ras().size());
    if (io.loading()) {
        // The seq -> slot ring grows until every live seq has its own
        // cell, which two equal seqs never do.
        std::vector<InstSeq> seqs;
        for (std::uint32_t s : live)
            seqs.push_back(slots_[s].seq);
        std::sort(seqs.begin(), seqs.end());
        if (auto dup = std::adjacent_find(seqs.begin(), seqs.end());
            dup != seqs.end())
            stsim_fatal("state: two live insts have seq %llu",
                        static_cast<unsigned long long>(*dup));
        inflightCount_ = live.size();
        seqSlot_.init(slots_.size() + 512, 0);
        for (std::uint32_t s : live)
            insertSeqSlot(slots_[s].seq, s);
    }

    // Every live slot sits in exactly one of the three queues, and
    // the LSQ holds only ROB slots.
    ringState(io, "fetch_q", fetchQ_, roles, SlotRole::Live,
              SlotRole::FetchQ);
    ringState(io, "dispatch_q", dispatchQ_, roles, SlotRole::Live,
              SlotRole::DispatchQ);
    ringState(io, "rob", rob_, roles, SlotRole::Live, SlotRole::Rob);
    for (std::uint32_t s : live)
        if (io.loading() && roles[s] == SlotRole::Live)
            stsim_fatal("state: live slot %u is in none of fetch_q, "
                        "dispatch_q and rob",
                        s);
    ringState(io, "lsq", lsq_, roles, SlotRole::Rob, SlotRole::Lsq);
    io.u64("lsq_base_pos", lsqBasePos_);
    io.u64("rob_base_pos", robBasePos_);
    // Both derive from the window: a restore rebuilds and checks them.
    unsigned ready_stores = static_cast<unsigned>(storeAddrMask_.count());
    io.u64("ready_stores", ready_stores);
    std::vector<std::uint64_t> ready_words = readyMask_.words();
    io.fixed("ready_words", ready_words);

    // Writeback calendar: pending buckets only, each with its drain
    // state (a half-drained sorted bucket restores as an already-
    // sorted bucket of the remaining events -- same pop order).
    std::vector<const WbBucket *> pending;
    for (const WbBucket &b : wbCal_)
        if (b.pending())
            pending.push_back(&b);
    std::uint64_t nbuckets = pending.size();
    io.u64("wb_cursor", wbCursor_);
    io.u64("wb_buckets", nbuckets);
    if (io.loading()) {
        for (WbBucket &b : wbCal_)
            b.clear();
        wbCount_ = 0;
    }
    for (std::uint64_t i = 0; i < nbuckets; ++i) {
        WbBucket b;
        if (!io.loading()) {
            b.cycle = pending[i]->cycle;
            b.sorted = pending[i]->sorted;
            b.ev.assign(pending[i]->ev.begin() + pending[i]->head,
                        pending[i]->ev.end());
        }
        io.begin("wb_bucket");
        io.u64("cycle", b.cycle);
        io.boolean("sorted", b.sorted);
        io.vec("ev", b.ev);
        io.end("wb_bucket");
        if (!io.loading())
            continue;
        for (;;) {
            WbBucket &slot = wbCal_[b.cycle & wbCalMask_];
            if (!slot.pending()) {
                wbCount_ += b.ev.size();
                slot = std::move(b);
                break;
            }
            growWbCal(); // two restored cycles alias: widen
        }
    }

    // Unknown-store and blocked-load sets live in LSQ-position masks;
    // the snapshot keeps the original seq-vector encoding (mask bits
    // walked in ascending position order == ascending seq order).
    std::vector<InstSeq> unknown, blocked;
    if (!io.loading()) {
        const std::uint64_t lsq_end = lsqBasePos_ + lsq_.size();
        unknownStoreMask_.forEachSet(lsqBasePos_, lsq_end,
                                     [&](std::uint64_t pos) {
            unknown.push_back(slots_[lsq_[pos - lsqBasePos_]].seq);
        });
        blockedLoadMask_.forEachSet(lsqBasePos_, lsq_end,
                                    [&](std::uint64_t pos) {
            blocked.push_back(slots_[lsq_[pos - lsqBasePos_]].seq);
        });
    }
    io.vec("unknown_stores", unknown);
    io.vec("blocked_loads", blocked);
    if (io.loading()) {
        // Rebuild the per-position masks. Unknown/address-ready stores
        // are fully derivable from the restored LSQ (the saved
        // unknown_stores vector is read for format compatibility and
        // may contain stale seqs from older writers); blockedness is
        // real state, restored from the saved seq list.
        unknownStoreMask_.reset();
        storeAddrMask_.reset();
        blockedLoadMask_.reset();
        for (std::size_t i = 0; i < lsq_.size(); ++i) {
            const DynInst &di = slots_[lsq_[i]];
            const std::uint64_t pos = lsqBasePos_ + i;
            if (di.ti.isStore()) {
                if (di.addrReady)
                    storeAddrMask_.set(pos);
                else
                    unknownStoreMask_.set(pos);
            }
        }
        for (InstSeq s : blocked) {
            auto slot = slotOf(s);
            if (!slot || !slots_[*slot].ti.isLoad() ||
                !slots_[*slot].inWindow)
                stsim_fatal("state: blocked load %llu is not a live "
                            "in-window load",
                            static_cast<unsigned long long>(s));
            blockedLoadMask_.set(slots_[*slot].lsqPos);
        }
        // An entry is ready when it is in the window, not issued,
        // waiting on nothing, not oracle-blocked and not a blocked
        // load.
        readyMask_.reset();
        for (std::size_t i = 0; i < rob_.size(); ++i) {
            const DynInst &di = slots_[rob_[i]];
            if (di.inWindow && !di.issued && di.waitingOn == 0 &&
                !oracleBlocked(di) &&
                !(di.ti.isLoad() && blockedLoadMask_.test(di.lsqPos)))
                readyMask_.set(di.windowPos);
        }
        if (readyMask_.words() != ready_words)
            stsim_fatal("state: ready_words disagree with the window");
        if (storeAddrMask_.count() != ready_stores)
            stsim_fatal("state: ready_stores %u, but the LSQ holds %llu "
                        "address-ready stores",
                        ready_stores,
                        static_cast<unsigned long long>(
                            storeAddrMask_.count()));
    }

    io.u64("fetch_mode", fetchMode_,
           static_cast<std::uint64_t>(FetchMode::WaitBranch));
    bool has_cursor = wrongCursor_.has_value();
    io.boolean("has_wrong_cursor", has_cursor);
    if (io.loading()) {
        wrongCursor_.reset();
        if (has_cursor)
            wrongCursor_.emplace(*deps_.workload);
    }
    if (wrongCursor_)
        wrongCursor_->state(io);
    io.u64("guard_branch_seq", guardBranchSeq_);
    io.u64("fetch_pc", fetchPc_);
    io.u64("fetch_stall_until", fetchStallUntil_);
    io.end("core");
}

} // namespace stsim
