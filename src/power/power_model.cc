#include "power_model.hh"

#include <vector>

#include "core/state_serde.hh"

namespace stsim
{

namespace
{

constexpr std::size_t kClockIdx =
    static_cast<std::size_t>(PUnit::Clock);

/** Index of the lowest set bit; mask must be nonzero. */
inline unsigned
lowestBit(std::uint32_t mask)
{
    return static_cast<unsigned>(__builtin_ctz(mask));
}

} // namespace

PowerModel::PowerModel(const PowerParams &params)
    : params_(params)
{
    const double dt = params_.cycleSeconds();
    idleFactor_ = params_.idleFactor;
    activeFactor_ = 1.0 - idleFactor_;
    invMetered_ = 1.0 / static_cast<double>(kNumPUnits - 1);
    for (PUnit u : kAllPUnits) {
        auto i = static_cast<std::size_t>(u);
        invPorts_[i] = 1.0 / params_.portsOf(u);
        peakDt_[i] = params_.peak(u) * dt;
        idleCycleE_[i] = params_.style == ClockGatingStyle::cc0
                             ? peakDt_[i]
                             : peakDt_[i] * idleFactor_;
    }
    cc0_ = params_.style == ClockGatingStyle::cc0;
}

template <ClockGatingStyle Style>
void
PowerModel::endCycleImpl()
{
    double act_sum = 0.0;
    double total_cnt = 0.0;
    double total_wrong = 0.0;

    // Only the units recorded this cycle need floating-point work; the
    // rest dissipate idleCycleE_ per cycle, accounted lazily from
    // touchedCycles_ when results are read.
    std::uint32_t mask = dirty_;
    dirty_ = 0;
    while (mask) {
        const std::size_t i = lowestBit(mask);
        mask &= mask - 1;
        const double cnt = cycleCount_[i];
        const double wrong = cycleWrong_[i];
        cycleCount_[i] = 0.0;
        cycleWrong_[i] = 0.0;
        if (i == kClockIdx)
            continue; // clock activity is derived, never recorded

        double act = cnt * invPorts_[i];
        if (act > 1.0)
            act = 1.0;

        const double e = Style == ClockGatingStyle::cc0
                             ? peakDt_[i]
                             : peakDt_[i] * (idleFactor_ +
                                             activeFactor_ * act);
        // Wrong-path instructions own their proportional share of the
        // unit's whole dissipation this cycle (the paper's Table 1
        // accounting); idle cycles attribute to nobody. When wrong is
        // zero the share is exactly +0.0 and both accumulations are
        // bit-exact no-ops, so the divide (the expensive op in this
        // loop) runs only on cycles with wrong-path activity.
        if (wrong > 0.0 && cnt > 0.0) {
            const double wasted = e * (wrong / cnt);
            unitWasted_[i] += wasted;
            totalWasted_ += wasted;
        }

        unitEnergyAcc_[i] += e;
        activitySum_[i] += act;
        ++touchedCycles_[i];

        act_sum += act;
        total_cnt += cnt;
        total_wrong += wrong;
    }

    // Clock network: activity = mean activity of the metered units;
    // waste attribution follows the global wrong-path activity share.
    {
        const double act = act_sum * invMetered_;
        const double e = Style == ClockGatingStyle::cc0
                             ? peakDt_[kClockIdx]
                             : peakDt_[kClockIdx] *
                                   (idleFactor_ + activeFactor_ * act);
        if (total_wrong > 0.0 && total_cnt > 0.0) {
            const double wasted = e * (total_wrong / total_cnt);
            unitWasted_[kClockIdx] += wasted;
            totalWasted_ += wasted;
        }
        unitEnergyAcc_[kClockIdx] += e;
        activitySum_[kClockIdx] += act;
        ++touchedCycles_[kClockIdx];
    }

    ++cycles_;
}

// endCycle() selects the instantiation by branch; force both here so
// the out-of-line template bodies exist in this translation unit.
template void PowerModel::endCycleImpl<ClockGatingStyle::cc0>();
template void PowerModel::endCycleImpl<ClockGatingStyle::cc3>();

void
PowerModel::feedMeters()
{
    // A meter's own scratch is clear between cycles, so handing it this
    // cycle's sums is the record() stream it would have accumulated.
    for (PowerModel *m : meters_) {
        m->cycleCount_ = cycleCount_;
        m->cycleWrong_ = cycleWrong_;
        m->dirty_ = dirty_;
        m->endCycle();
    }
}

void
PowerModel::addMeter(PowerModel &meter)
{
    if (cycles_ != 0 || meter.cycles_ != 0)
        stsim_fatal("power: a meter attaches only at the first measured "
                    "cycle (this model has metered %llu cycles, the "
                    "meter %llu)",
                    static_cast<unsigned long long>(cycles_),
                    static_cast<unsigned long long>(meter.cycles_));
    meters_.push_back(&meter);
}

double
PowerModel::totalEnergy() const
{
    double total = 0.0;
    for (PUnit u : kAllPUnits)
        total += unitEnergy(u);
    return total;
}

double
PowerModel::meanActivity(PUnit u) const
{
    // Untouched cycles contribute exactly zero activity, so the lazy
    // idle accounting needs no correction here.
    auto i = static_cast<std::size_t>(u);
    return cycles_ ? activitySum_[i] / static_cast<double>(cycles_)
                   : 0.0;
}

double
PowerModel::avgPower() const
{
    return cycles_ ? totalEnergy() / seconds() : 0.0;
}

void
PowerModel::resetStats()
{
    unitEnergyAcc_.fill(0.0);
    unitWasted_.fill(0.0);
    activitySum_.fill(0.0);
    touchedCycles_.fill(0);
    cycleCount_.fill(0.0);
    cycleWrong_.fill(0.0);
    dirty_ = 0;
    cycles_ = 0;
    totalWasted_ = 0.0;
}

void
PowerModel::state(serde::StateIO &io)
{
    stsim_assert(io.loading() || dirty_ == 0, "power snapshot mid-cycle");
    io.begin("power");
    io.fixed("unit_energy", unitEnergyAcc_);
    io.fixed("unit_wasted", unitWasted_);
    io.fixed("activity_sum", activitySum_);
    io.fixed("touched_cycles", touchedCycles_);
    io.u64("cycles", cycles_);
    io.dbl("total_wasted", totalWasted_);
    if (io.loading()) {
        cycleCount_.fill(0.0);
        cycleWrong_.fill(0.0);
        dirty_ = 0;
    }
    io.end("power");
}

} // namespace stsim
