/**
 * @file
 * Fetch stage: follows the predicted instruction stream, switching to a
 * wrong-path cursor after a misprediction and back after resolution.
 */

#include "common/logging.hh"
#include "core.hh"

namespace stsim
{

std::optional<Addr>
Core::processControl(DynInst &di)
{
    const bool on_wrong = fetchMode_ == FetchMode::WrongPath;
    const bool wp = di.wrongPath;

    di.pred = deps_.bpred->predict(di.ti);
    di.predicted = true;
    deps_.power->record(PUnit::Bpred, 1, wp ? 1 : 0);

    // Confidence estimation for conditional branches (drives the
    // speculation controller; also metered as bpred-unit activity).
    if (di.ti.isCondBranch() && deps_.confidence) {
        bool dir_correct =
            on_wrong ? true : di.pred.predTaken == di.ti.taken;
        di.conf = deps_.confidence->estimate(di.ti.pc,
                                             di.pred.histBefore,
                                             di.pred.dir, dir_correct);
        di.confAssigned = true;
        deps_.power->record(PUnit::Bpred, 1, wp ? 1 : 0);
        deps_.controller->onCondBranchFetched(di.seq, di.conf);
    }

    if (on_wrong) {
        // The wrong path follows the cursor's own outcomes; its
        // branches never redirect fetch. A taken control transfer
        // whose target the BTB did not supply still costs the
        // misfetch bubble.
        if (di.ti.taken && !di.pred.btbHit &&
            di.ti.cls != InstClass::Return) {
            fetchStallUntil_ = now_ + cfg_.btbMissPenalty;
            ++stats_.btbMisfetches;
            fetchPc_ = di.ti.npc;
            return std::nullopt;
        }
        return di.ti.npc;
    }

    // Correct path: compare prediction against the architectural
    // outcome (the simulator knows it at fetch; the machine does not).
    bool dir_wrong =
        di.ti.isCondBranch() && di.pred.predTaken != di.ti.taken;
    bool target_wrong = false;
    if (!dir_wrong && di.pred.predTaken && di.ti.taken) {
        if (di.ti.cls == InstClass::Return)
            target_wrong = di.pred.predTarget != di.ti.target;
        else if (di.pred.btbHit && di.pred.predTarget != di.ti.target)
            target_wrong = true; // stale/aliased BTB entry
    }

    if (dir_wrong || target_wrong) {
        di.mispredicted = true;
        if (di.ti.cls == InstClass::Return)
            ++stats_.rasMispredicts;
        guardBranchSeq_ = di.seq;

        if (cfg_.oracle == OracleMode::OracleFetch) {
            fetchMode_ = FetchMode::WaitBranch;
            return std::nullopt;
        }

        // Where the machine believes execution continues.
        Addr wrong_pc = di.pred.predTaken
                            ? (di.pred.predTarget ? di.pred.predTarget
                                                  : di.ti.target)
                            : di.ti.pc + 4;
        const StaticProgram &prog = deps_.workload->program();
        if (wrong_pc < prog.codeBase() || wrong_pc >= prog.codeEnd()) {
            // Predicted into garbage (cold RAS): fetch stalls until
            // the branch resolves.
            fetchMode_ = FetchMode::WaitBranch;
            return std::nullopt;
        }

        fetchMode_ = FetchMode::WrongPath;
        wrongCursor_.emplace(*deps_.workload, wrong_pc,
                             di.seq * 0x9e3779b97f4a7c15ull);
        fetchPc_ = wrong_pc;
        if (di.pred.predTaken && !di.pred.btbHit) {
            // Direction was (wrongly) taken and the target comes from
            // decode: pay the misfetch bubble before the wrong path.
            fetchStallUntil_ = now_ + cfg_.btbMissPenalty;
            ++stats_.btbMisfetches;
            return std::nullopt;
        }
        if (di.pred.predTaken)
            return std::nullopt; // discontinuous fetch: end the group
        return wrong_pc;         // fall-through keeps streaming
    }

    // Correct prediction. A taken transfer with no BTB-supplied target
    // pays the misfetch bubble and resumes at the real target once
    // decode computes it. (Returns with a wrong or empty RAS entry
    // were classified as full mispredicts above.)
    if (di.pred.predTaken && !di.pred.btbHit) {
        fetchStallUntil_ = now_ + cfg_.btbMissPenalty;
        ++stats_.btbMisfetches;
        fetchPc_ = di.ti.npc;
        return std::nullopt;
    }
    return di.ti.npc;
}

void
Core::fetchStage()
{
    if (fetchMode_ == FetchMode::WaitBranch) {
        ++stats_.oracleFetchStall;
        return;
    }
    if (now_ < fetchStallUntil_) {
        ++stats_.fetchRedirectStall;
        return;
    }
    if (!deps_.controller->fetchActive(now_)) {
        ++stats_.fetchThrottled;
        return;
    }
    if (fetchQ_.size() + cfg_.fetchWidth > fetchQCap_)
        return; // backpressure from a stalled decode stage

    const unsigned line_bits = 5; // 32-byte lines (Table 3)
    const unsigned line_insts = 1u << (line_bits - 2);
    unsigned fetched = 0;
    unsigned taken_branches = 0;
    Addr cur_line = kInvalidAddr;
    bool stop = false;

    while (!stop && fetched < cfg_.fetchWidth) {
        const bool wp = fetchMode_ == FetchMode::WrongPath;
        Addr line = fetchPc_ >> line_bits;
        if (line != cur_line) {
            auto r = deps_.memory->fetchInst(fetchPc_, wp);
            deps_.power->record(PUnit::ICache, 1, wp ? 1 : 0);
            if (r.l2Accessed)
                deps_.power->record(PUnit::DCache2, 1, wp ? 1 : 0);
            cur_line = line;
            if (!r.l1Hit) {
                // Miss: instructions already fetched this cycle are
                // delivered; fetch resumes when the line arrives.
                fetchStallUntil_ = now_ + r.latency;
                ++stats_.fetchIcacheStall;
                break;
            }
        }

        // Batched generation: fill up to the line boundary (a group
        // never spans an icache line, so the per-line access above
        // stays once-per-line) straight into freshly popped slots.
        // The generator stops after a block terminator, so a branch
        // can only be the group's last instruction -- fetch mode and
        // PC handling run between groups, exactly as the serial loop
        // interleaved them.
        const unsigned line_room =
            line_insts - ((fetchPc_ >> 2) & (line_insts - 1));
        unsigned navail = cfg_.fetchWidth - fetched;
        if (navail > line_room)
            navail = line_room;
        std::uint32_t group[8];
        TraceInst *tis[8];
        for (unsigned i = 0; i < navail; ++i) {
            group[i] = allocSlotRaw();
            tis[i] = &slots_[group[i]].ti;
        }
        const unsigned m = wp ? wrongCursor_->nextGroup(tis, navail)
                              : deps_.workload->nextGroup(tis, navail);
        // Unused slots go back in reverse pop order, restoring the
        // free stack exactly as if they were never allocated.
        for (unsigned i = navail; i-- > m;)
            freeSlots_.push_back(group[i]);
        ++hot_.fetchGroups;
        stsim_dbg_assert(tis[0]->pc == fetchPc_,
                     "fetch desync: walker %#llx fetch %#llx",
                     static_cast<unsigned long long>(tis[0]->pc),
                     static_cast<unsigned long long>(fetchPc_));

        for (unsigned i = 0; i < m; ++i) {
            const std::uint32_t slot = group[i];
            DynInst &di = inst(slot);
            di.reset(); // deferred from allocSlotRaw; ti already live
            di.seq = nextSeq_++;
            di.wrongPath = wp;
            di.decodeReady = now_ + cfg_.fetchStages;
            insertSeqSlot(di.seq, slot);
            ++inflightCount_;
            fetchQ_.push_back(slot);
            ++stats_.fetchedInsts;
            if (wp)
                ++stats_.fetchedWrongPath;
            ++fetched;

            if (di.ti.isBranch()) {
                stsim_dbg_assert(i + 1 == m,
                             "branch mid-group (terminator must end "
                             "the group)");
                auto cont = processControl(di);
                if (!cont) {
                    stop = true;
                    break;
                }
                fetchPc_ = *cont;
                if (di.pred.predTaken &&
                    ++taken_branches >= cfg_.maxTakenBranchesPerFetch) {
                    stop = true; // Table 3: up to 2 taken per cycle
                    break;
                }
            } else {
                fetchPc_ += 4;
            }
        }
    }
}

} // namespace stsim
