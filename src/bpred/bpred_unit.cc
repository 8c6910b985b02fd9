#include "bpred_unit.hh"

#include "bpred/bimodal.hh"
#include "bpred/gshare.hh"
#include "common/logging.hh"
#include "core/state_serde.hh"

namespace stsim
{

namespace
{

std::unique_ptr<DirectionPredictor>
makePredictor(const BpredConfig &cfg)
{
    switch (cfg.kind) {
      case BpredConfig::Kind::Gshare:
        return std::make_unique<Gshare>(cfg.predictorBytes);
      case BpredConfig::Kind::Bimodal:
        return std::make_unique<Bimodal>(cfg.predictorBytes);
    }
    stsim_panic("bad predictor kind");
}

} // namespace

void
BpredConfig::validate() const
{
    checkField("bpred", "predictorBytes", predictorBytes, 1, 1 << 20, true);
    // Power-of-two ways that divide the entries give power-of-two sets.
    checkField("bpred", "btbWays", btbWays, 1, 64, true);
    checkField("bpred", "btbEntries", btbEntries, btbWays, 1 << 16, true);
    checkField("bpred", "rasEntries", rasEntries, 2, 1024);
}

BpredUnit::BpredUnit(const BpredConfig &cfg)
    : dirPred_(makePredictor(cfg)),
      btb_(cfg.btbEntries, cfg.btbWays),
      ras_(cfg.rasEntries)
{
}

BranchPrediction
BpredUnit::predict(const TraceInst &inst)
{
    stsim_dbg_assert(inst.isBranch(), "predict() on non-control inst");
    BranchPrediction bp;
    bp.histBefore = specHist_;
    bp.rasCp = ras_.checkpoint();

    switch (inst.cls) {
      case InstClass::CondBranch: {
        ++lookups_;
        bp.dir = dirPred_->predict(inst.pc, specHist_);
        bp.predTaken = bp.dir.taken;
        auto t = btb_.lookup(inst.pc);
        bp.btbHit = t.has_value();
        if (bp.predTaken)
            bp.predTarget = bp.btbHit ? *t : 0;
        else
            bp.predTarget = inst.pc + 4;
        // Speculative history update (repaired on squash).
        specHist_ = (specHist_ << 1) | (bp.predTaken ? 1 : 0);
        break;
      }
      case InstClass::Jump: {
        bp.predTaken = true;
        auto t = btb_.lookup(inst.pc);
        bp.btbHit = t.has_value();
        bp.predTarget = bp.btbHit ? *t : 0;
        break;
      }
      case InstClass::Call: {
        bp.predTaken = true;
        auto t = btb_.lookup(inst.pc);
        bp.btbHit = t.has_value();
        bp.predTarget = bp.btbHit ? *t : 0;
        ras_.push(inst.pc + 4);
        break;
      }
      case InstClass::Return: {
        bp.predTaken = true;
        bp.predTarget = ras_.pop();
        bp.btbHit = bp.predTarget != 0;
        break;
      }
      default:
        stsim_panic("unreachable");
    }
    return bp;
}

void
BpredUnit::commitUpdate(const TraceInst &inst, const BranchPrediction &pred)
{
    switch (inst.cls) {
      case InstClass::CondBranch:
        ++condUpdates_;
        if (pred.predTaken != inst.taken)
            ++condMispredicts_;
        dirPred_->update(inst.pc, pred.histBefore, inst.taken);
        if (inst.taken)
            btb_.update(inst.pc, inst.target);
        break;
      case InstClass::Jump:
      case InstClass::Call:
        btb_.update(inst.pc, inst.target);
        break;
      case InstClass::Return:
        break; // RAS-predicted; nothing to train
      default:
        break;
    }
}

void
BpredUnit::squashRestore(const TraceInst &inst,
                         const BranchPrediction &pred)
{
    // Roll global history back to the checkpoint, then insert the
    // branch's architectural outcome (cond branches only contribute).
    if (inst.cls == InstClass::CondBranch)
        specHist_ = (pred.histBefore << 1) | (inst.taken ? 1 : 0);
    else
        specHist_ = pred.histBefore;

    // Restore the RAS to the pre-branch state and replay the branch's
    // own architectural stack operation.
    ras_.restore(pred.rasCp);
    if (inst.cls == InstClass::Call)
        ras_.push(inst.pc + 4);
    else if (inst.cls == InstClass::Return)
        ras_.pop();
}

void
BpredUnit::state(serde::StateIO &io)
{
    io.begin("bpred");
    dirPred_->state(io);
    btb_.state(io);
    ras_.state(io);
    io.u64("spec_hist", specHist_);
    io.u64("lookups", lookups_);
    io.u64("cond_updates", condUpdates_);
    io.u64("cond_mispredicts", condMispredicts_);
    io.end("bpred");
}

} // namespace stsim
