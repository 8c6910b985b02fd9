/**
 * @file
 * Core checkpointing: saveState/loadState over the complete
 * microarchitectural state. Kept out of core.cc so the cycle-accurate
 * pipeline stages and the (cold) serialization code do not share a
 * translation unit.
 *
 * Snapshots are taken between ticks, which is what makes the state
 * finite: the FU pool resets at the top of every tick and the power
 * model's per-cycle scratch is consumed by endCycle, so neither is
 * state here. Everything else -- including incidental orderings like
 * the free-slot stack and the writeback-calendar bucket contents -- is
 * preserved exactly, so a restored run is bit-identical to one that
 * never stopped.
 */

#include <vector>

#include "core/state_serde.hh"
#include "pipeline/core.hh"

namespace stsim
{

namespace
{

void
saveStats(serde::StateWriter &w, const CoreStats &s)
{
    std::vector<std::uint64_t> v;
    visitFields(s, [&](const char *, Counter c) { v.push_back(c); });
    w.begin("core_stats");
    w.u64Vec("counters", v);
    w.end("core_stats");
}

void
loadStats(serde::StateReader &r, CoreStats &s)
{
    r.begin("core_stats");
    std::size_t n = 0;
    visitFields(s, [&](const char *, Counter &) { ++n; });
    std::vector<std::uint64_t> v = r.u64Vec("counters", n);
    std::size_t i = 0;
    visitFields(s, [&](const char *, Counter &c) { c = v[i++]; });
    r.end("core_stats");
}

/** Pack the DynInst status flags into one word (bit order is ABI). */
std::uint64_t
packFlags(const DynInst &di)
{
    std::uint64_t f = 0;
    f |= std::uint64_t{di.wrongPath} << 0;
    f |= std::uint64_t{di.inWindow} << 1;
    f |= std::uint64_t{di.issued} << 2;
    f |= std::uint64_t{di.completed} << 3;
    f |= std::uint64_t{di.predicted} << 4;
    f |= std::uint64_t{di.mispredicted} << 5;
    f |= std::uint64_t{di.confAssigned} << 6;
    f |= std::uint64_t{di.addrReady} << 7;
    return f;
}

void
unpackFlags(std::uint64_t f, DynInst &di)
{
    di.wrongPath = (f >> 0) & 1;
    di.inWindow = (f >> 1) & 1;
    di.issued = (f >> 2) & 1;
    di.completed = (f >> 3) & 1;
    di.predicted = (f >> 4) & 1;
    di.mispredicted = (f >> 5) & 1;
    di.confAssigned = (f >> 6) & 1;
    di.addrReady = (f >> 7) & 1;
}

void
saveInst(serde::StateWriter &w, const DynInst &di)
{
    w.begin("inst");
    w.u64("seq", di.seq);
    w.u64("flags", packFlags(di));
    w.u64("waiting_on", di.waitingOn);
    std::vector<InstSeq> cons;
    di.forEachConsumer([&](InstSeq s) { cons.push_back(s); });
    w.u64Vec("consumers", cons);
    w.u64("pc", di.ti.pc);
    w.u64("cls", static_cast<std::uint64_t>(di.ti.cls));
    w.u64("src0", di.ti.srcDist[0]);
    w.u64("src1", di.ti.srcDist[1]);
    w.boolean("has_dest", di.ti.hasDest);
    w.u64("mem_addr", di.ti.memAddr);
    w.boolean("taken", di.ti.taken);
    w.u64("target", di.ti.target);
    w.u64("npc", di.ti.npc);
    w.u64("window_pos", di.windowPos);
    w.u64("lsq_pos", di.lsqPos);
    w.u64("decode_ready", di.decodeReady);
    w.u64("dispatch_ready", di.dispatchReady);
    w.u64("complete_at", di.completeAt);
    w.boolean("pred_taken", di.pred.predTaken);
    w.u64("pred_target", di.pred.predTarget);
    w.boolean("btb_hit", di.pred.btbHit);
    w.boolean("dir_taken", di.pred.dir.taken);
    w.u64("dir_counter", di.pred.dir.counter);
    w.u64("dir_counter_max", di.pred.dir.counterMax);
    w.u64("hist_before", di.pred.histBefore);
    w.u64("ras_top", di.pred.rasCp.top);
    w.u64("ras_top_value", di.pred.rasCp.topValue);
    w.u64("conf", static_cast<std::uint64_t>(di.conf));
    w.end("inst");
}

/** Restore one instruction. @p ras_entries bounds its RAS checkpoint:
 *  a squash writes the RAS at that index. */
void
loadInst(serde::StateReader &r, DynInst &di, std::size_t ras_entries)
{
    r.begin("inst");
    di.seq = r.u64("seq");
    unpackFlags(r.u64("flags"), di);
    di.waitingOn = static_cast<std::uint8_t>(r.u64("waiting_on"));
    di.clearConsumers();
    for (std::uint64_t s : r.u64Vec("consumers"))
        di.addConsumer(s);
    di.ti.pc = r.u64("pc");
    di.ti.cls = static_cast<InstClass>(r.u64("cls"));
    di.ti.srcDist[0] = static_cast<std::uint8_t>(r.u64("src0"));
    di.ti.srcDist[1] = static_cast<std::uint8_t>(r.u64("src1"));
    di.ti.hasDest = r.boolean("has_dest");
    di.ti.memAddr = r.u64("mem_addr");
    di.ti.taken = r.boolean("taken");
    di.ti.target = r.u64("target");
    di.ti.npc = r.u64("npc");
    di.fu = fuTypeFor(di.ti.cls); // derived, not serialized
    di.windowPos = r.u64("window_pos");
    di.lsqPos = r.u64("lsq_pos");
    di.decodeReady = r.u64("decode_ready");
    di.dispatchReady = r.u64("dispatch_ready");
    di.completeAt = r.u64("complete_at");
    di.pred.predTaken = r.boolean("pred_taken");
    di.pred.predTarget = r.u64("pred_target");
    di.pred.btbHit = r.boolean("btb_hit");
    di.pred.dir.taken = r.boolean("dir_taken");
    di.pred.dir.counter =
        static_cast<unsigned>(r.u64("dir_counter"));
    di.pred.dir.counterMax =
        static_cast<unsigned>(r.u64("dir_counter_max"));
    di.pred.histBefore = r.u64("hist_before");
    const std::uint64_t ras_top = r.u64("ras_top");
    if (ras_top >= ras_entries)
        stsim_fatal("state: inst %llu ras_top %llu out of range (%zu RAS "
                    "entries)",
                    static_cast<unsigned long long>(di.seq),
                    static_cast<unsigned long long>(ras_top), ras_entries);
    di.pred.rasCp.top = static_cast<std::uint32_t>(ras_top);
    di.pred.rasCp.topValue = r.u64("ras_top_value");
    const std::uint64_t conf = r.u64("conf");
    if (conf > static_cast<std::uint64_t>(ConfLevel::VLC))
        stsim_fatal("state: inst %llu conf %llu out of range (4 levels)",
                    static_cast<unsigned long long>(di.seq),
                    static_cast<unsigned long long>(conf));
    di.conf = static_cast<ConfLevel>(conf);
    r.end("inst");
}

void
saveRing(serde::StateWriter &w, const char *section, const SlotRing &q)
{
    w.begin(section);
    w.u64("head", q.headPos());
    std::vector<std::uint32_t> items;
    items.reserve(q.size());
    for (std::size_t i = 0; i < q.size(); ++i)
        items.push_back(q[i]);
    w.u64Vec("items", items);
    w.end(section);
}

void
loadRing(serde::StateReader &r, const char *section, SlotRing &q,
         std::size_t pool_size)
{
    r.begin(section);
    q.restartAt(r.u64("head"));
    for (std::uint64_t s : r.u64Vec("items")) {
        if (s >= pool_size)
            stsim_fatal("state: %s holds slot %llu beyond the pool "
                        "(%zu slots)",
                        section, static_cast<unsigned long long>(s),
                        pool_size);
        q.push_back(static_cast<std::uint32_t>(s));
    }
    r.end(section);
}

} // namespace

void
Core::saveState(serde::StateWriter &w) const
{
    w.begin("core");
    w.u64("now", now_);
    w.u64("last_commit_cycle", lastCommitCycle_);
    w.u64("next_seq", nextSeq_);
    saveStats(w, stats_);
    confMetrics_.saveState(w);

    // Slot pool: the free stack in its exact order (allocation order
    // after restore must match), then every live slot's instruction.
    w.u64("pool_size", slots_.size());
    w.u64Vec("free_slots", freeSlots_);
    std::vector<bool> is_free(slots_.size(), false);
    for (std::uint32_t s : freeSlots_)
        is_free[s] = true;
    std::vector<std::uint32_t> live;
    for (std::uint32_t s = 0; s < slots_.size(); ++s)
        if (!is_free[s])
            live.push_back(s);
    w.u64Vec("live_slots", live);
    for (std::uint32_t s : live)
        saveInst(w, slots_[s]);

    saveRing(w, "fetch_q", fetchQ_);
    saveRing(w, "dispatch_q", dispatchQ_);
    saveRing(w, "rob", rob_);
    saveRing(w, "lsq", lsq_);
    w.u64("lsq_base_pos", lsqBasePos_);
    w.u64("rob_base_pos", robBasePos_);
    w.u64("ready_stores", readyStores_);
    w.u64Vec("ready_words", readyWords_);

    // Writeback calendar: pending buckets only, each with its drain
    // state (a half-drained sorted bucket restores as an already-
    // sorted bucket of the remaining events -- same pop order).
    std::vector<const WbBucket *> pending;
    for (const WbBucket &b : wbCal_)
        if (b.pending())
            pending.push_back(&b);
    w.u64("wb_cursor", wbCursor_);
    w.u64("wb_buckets", pending.size());
    for (const WbBucket *b : pending) {
        w.begin("wb_bucket");
        w.u64("cycle", b->cycle);
        w.boolean("sorted", b->sorted);
        std::vector<InstSeq> ev(b->ev.begin() + b->head, b->ev.end());
        w.u64Vec("ev", ev);
        w.end("wb_bucket");
    }

    // Unknown-store and blocked-load sets live in LSQ-position masks;
    // the snapshot keeps the original seq-vector encoding (mask bits
    // walked in ascending position order == ascending seq order).
    const std::uint64_t lsq_end = lsqBasePos_ + lsq_.size();
    std::vector<InstSeq> us;
    unknownStoreMask_.forEachSet(lsqBasePos_, lsq_end,
                                 [&](std::uint64_t pos) {
        us.push_back(slots_[lsq_[pos - lsqBasePos_]].seq);
    });
    w.u64Vec("unknown_stores", us);
    std::vector<InstSeq> bl;
    blockedLoadMask_.forEachSet(lsqBasePos_, lsq_end,
                                [&](std::uint64_t pos) {
        bl.push_back(slots_[lsq_[pos - lsqBasePos_]].seq);
    });
    w.u64Vec("blocked_loads", bl);

    w.u64("fetch_mode", static_cast<std::uint64_t>(fetchMode_));
    w.boolean("has_wrong_cursor", wrongCursor_.has_value());
    if (wrongCursor_)
        wrongCursor_->saveState(w);
    w.u64("guard_branch_seq", guardBranchSeq_);
    w.u64("fetch_pc", fetchPc_);
    w.u64("fetch_stall_until", fetchStallUntil_);
    w.end("core");
}

void
Core::loadState(serde::StateReader &r)
{
    r.begin("core");
    now_ = r.u64("now");
    lastCommitCycle_ = r.u64("last_commit_cycle");
    nextSeq_ = r.u64("next_seq");
    loadStats(r, stats_);
    confMetrics_.loadState(r);

    std::uint64_t pool = r.u64("pool_size");
    if (pool != slots_.size())
        stsim_fatal("state: core slot pool mismatch (snapshot %llu, "
                    "configured %zu) -- snapshot is for a different "
                    "core config",
                    static_cast<unsigned long long>(pool),
                    slots_.size());
    std::vector<std::uint64_t> free_slots = r.u64Vec("free_slots");
    std::vector<std::uint64_t> live = r.u64Vec("live_slots");
    if (free_slots.size() + live.size() != slots_.size())
        stsim_fatal("state: core slot partition mismatch (%zu free + "
                    "%zu live != %zu)",
                    free_slots.size(), live.size(), slots_.size());
    for (DynInst &di : slots_) {
        di.reset();
        di.seq = kInvalidSeq;
    }
    freeSlots_.clear();
    for (std::uint64_t s : free_slots) {
        if (s >= slots_.size())
            stsim_fatal("state: free slot %llu beyond the pool",
                        static_cast<unsigned long long>(s));
        freeSlots_.push_back(static_cast<std::uint32_t>(s));
    }
    for (std::uint64_t s : live) {
        if (s >= slots_.size())
            stsim_fatal("state: live slot %llu beyond the pool",
                        static_cast<unsigned long long>(s));
        loadInst(r, slots_[s], deps_.bpred->ras().size());
    }
    inflightCount_ = live.size();
    seqSlot_.init(slots_.size() + 512, 0);
    for (std::uint64_t s : live)
        insertSeqSlot(slots_[s].seq, static_cast<std::uint32_t>(s));

    loadRing(r, "fetch_q", fetchQ_, slots_.size());
    loadRing(r, "dispatch_q", dispatchQ_, slots_.size());
    loadRing(r, "rob", rob_, slots_.size());
    loadRing(r, "lsq", lsq_, slots_.size());
    lsqBasePos_ = r.u64("lsq_base_pos");
    robBasePos_ = r.u64("rob_base_pos");
    readyStores_ = static_cast<unsigned>(r.u64("ready_stores"));
    readyWords_ = r.u64Vec("ready_words", readyWords_.size());

    for (WbBucket &b : wbCal_)
        b.clear();
    wbCursor_ = r.u64("wb_cursor");
    wbCount_ = 0;
    std::uint64_t nbuckets = r.u64("wb_buckets");
    for (std::uint64_t i = 0; i < nbuckets; ++i) {
        r.begin("wb_bucket");
        Cycle cycle = r.u64("cycle");
        bool sorted = r.boolean("sorted");
        std::vector<std::uint64_t> ev = r.u64Vec("ev");
        r.end("wb_bucket");
        for (;;) {
            WbBucket &b = wbCal_[cycle & wbCalMask_];
            if (b.pending()) {
                growWbCal(); // two restored cycles alias: widen
                continue;
            }
            b.clear();
            b.cycle = cycle;
            b.sorted = sorted;
            b.ev.assign(ev.begin(), ev.end());
            wbCount_ += b.ev.size();
            break;
        }
    }

    // Rebuild the per-position masks. Unknown/address-ready stores are
    // fully derivable from the restored LSQ (the saved unknown_stores
    // vector is read for format compatibility and may contain stale
    // seqs from older writers); blockedness is real state, restored
    // from the saved seq list.
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
    (void)r.u64Vec("unknown_stores");
    for (std::uint64_t s : r.u64Vec("blocked_loads")) {
        auto slot = slotOf(s);
        if (!slot || !slots_[*slot].ti.isLoad() ||
            !slots_[*slot].inWindow)
            stsim_fatal("state: blocked load %llu is not a live "
                        "in-window load",
                        static_cast<unsigned long long>(s));
        blockedLoadMask_.set(slots_[*slot].lsqPos);
    }

    std::uint64_t mode = r.u64("fetch_mode");
    if (mode > static_cast<std::uint64_t>(FetchMode::WaitBranch))
        stsim_fatal("state: bad fetch mode %llu",
                    static_cast<unsigned long long>(mode));
    fetchMode_ = static_cast<FetchMode>(mode);
    wrongCursor_.reset();
    if (r.boolean("has_wrong_cursor"))
        wrongCursor_.emplace(*deps_.workload, r);
    guardBranchSeq_ = r.u64("guard_branch_seq");
    fetchPc_ = r.u64("fetch_pc");
    fetchStallUntil_ = r.u64("fetch_stall_until");
    r.end("core");
}

} // namespace stsim
