#include "simulator.hh"

#include <cstdlib>
#include <map>
#include <mutex>

#include "common/logging.hh"
#include "confidence/bpru.hh"
#include "confidence/jrs.hh"
#include "confidence/perfect.hh"
#include "core/job_serde.hh"
#include "core/state_serde.hh"
#include "obs/metrics.hh"
#include "trace/profile.hh"

namespace stsim
{

const char *
confKindName(ConfKind k)
{
    switch (k) {
      case ConfKind::None: return "none";
      case ConfKind::Bpru: return "bpru";
      case ConfKind::Jrs: return "jrs";
      case ConfKind::Perfect: return "perfect";
    }
    return "?";
}

void
SimConfig::finalize()
{
    if (finalized)
        return;
    finalized = true;
    core.applyPipelineDepth(pipelineDepth);
    memory.dl1ExtraLatency = core.extraDl1Latency;
    core.validate();
    if (specControl.mode != SpecControlMode::None &&
        confKind == ConfKind::None) {
        stsim_fatal("speculation control needs a confidence estimator");
    }
    // Bpred-unit power follows its total array budget: predictor plus
    // confidence estimator when one is present (Figure 7 scaling; also
    // charges Selective Throttling for its estimator hardware).
    std::size_t budget = bpred.predictorBytes;
    if (confKind == ConfKind::Bpru || confKind == ConfKind::Jrs)
        budget += confBytes;
    power.scaleBpredSize(budget);
}

void
SimConfig::applyEnvOverrides()
{
    if (const char *s = std::getenv("REPRO_INSTRUCTIONS")) {
        char *end = nullptr;
        unsigned long long v = std::strtoull(s, &end, 10);
        if (end && *end == '\0' && v >= 1000)
            maxInstructions = v;
        else
            stsim_warn("ignoring bad REPRO_INSTRUCTIONS='%s'", s);
    }
}

std::shared_ptr<const StaticProgram>
Simulator::programFor(const std::string &benchmark)
{
    // Shared across concurrently-constructed Simulators (the parallel
    // experiment engine); the map is the only mutable shared state.
    static std::mutex mu;
    static std::map<std::string, std::shared_ptr<const StaticProgram>>
        cache;
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = cache.find(benchmark);
        if (it != cache.end())
            return it->second;
    }
    // Build outside the lock: CFG construction is expensive and
    // deterministic, so a racing duplicate is wasted work, not a
    // correctness problem — emplace keeps whichever landed first.
    auto prog = std::make_shared<const StaticProgram>(
        findProfile(benchmark));
    std::lock_guard<std::mutex> lock(mu);
    return cache.emplace(benchmark, std::move(prog)).first->second;
}

Simulator::Simulator(SimConfig cfg)
    : cfg_(std::move(cfg))
{
    cfg_.finalize();

    std::shared_ptr<const StaticProgram> program;
    if (cfg_.customProfile) {
        program =
            std::make_shared<const StaticProgram>(*cfg_.customProfile);
    } else {
        program = programFor(cfg_.benchmark);
    }
    workload_ = std::make_unique<Workload>(std::move(program),
                                           cfg_.runSeed);
    bpred_ = std::make_unique<BpredUnit>(cfg_.bpred);

    switch (cfg_.confKind) {
      case ConfKind::None:
        break;
      case ConfKind::Bpru:
        confidence_ = std::make_unique<BpruEstimator>(cfg_.confBytes,
                                                      cfg_.bpruParams);
        break;
      case ConfKind::Jrs:
        confidence_ = std::make_unique<JrsEstimator>(cfg_.confBytes,
                                                     cfg_.jrsThreshold);
        break;
      case ConfKind::Perfect:
        confidence_ = std::make_unique<PerfectEstimator>();
        break;
    }

    memory_ = std::make_unique<MemoryHierarchy>(cfg_.memory);
    power_ = std::make_unique<PowerModel>(cfg_.power);
    controller_ =
        std::make_unique<SpeculationController>(cfg_.specControl);

    Core::Deps deps;
    deps.workload = workload_.get();
    deps.bpred = bpred_.get();
    deps.confidence = confidence_.get();
    deps.memory = memory_.get();
    deps.power = power_.get();
    deps.controller = controller_.get();
    core_ = std::make_unique<Core>(cfg_.core, deps);
}

Simulator::~Simulator() = default;

SimResults
Simulator::run(const CancelToken *cancel)
{
    if (phase_ == Phase::Warmup)
        runWarmup(cancel);
    return runMeasure(cancel);
}

void
Simulator::runWarmup(const CancelToken *cancel)
{
    if (phase_ != Phase::Warmup)
        return;

    // Poll cadence for cooperative cancellation: every 2048 cycles is
    // frequent enough that a deadline fires within microseconds of
    // wall time, and rare enough to be invisible in the profile.
    constexpr Cycle kCancelPollMask = 2047;

    // Warmup: trains caches/predictors, then statistics reset.
    while (core_->stats().committedInsts < cfg_.warmupInstructions) {
        core_->tick();
        if (cancel && (core_->now() & kCancelPollMask) == 0 &&
            cancel->cancelled()) {
            throw JobCancelled();
        }
    }
    core_->resetStats();
    power_->resetStats();
    bpred_->resetStats();

    // Cache stats reset so reported miss rates exclude cold start.
    memory_->resetStats();
    phase_ = Phase::Measure;
}

SimResults
Simulator::runMeasure(const CancelToken *cancel)
{
    stsim_assert(phase_ == Phase::Measure,
                 "runMeasure before warmup completed");
    constexpr Cycle kCancelPollMask = 2047;
    auto pollCancel = [&] {
        if (cancel && (core_->now() & kCancelPollMask) == 0 &&
            cancel->cancelled()) {
            throw JobCancelled();
        }
    };

    const Cycle max_cycles =
        static_cast<Cycle>(cfg_.maxInstructions) * 64 + 1'000'000;
    Cycle start = core_->now();
    while (core_->stats().committedInsts < cfg_.maxInstructions) {
        core_->tick();
        pollCancel();
        if (core_->now() - start > max_cycles)
            stsim_panic("simulation ran away: %llu cycles for %llu insts",
                        static_cast<unsigned long long>(core_->now() -
                                                        start),
                        static_cast<unsigned long long>(
                            core_->stats().committedInsts));
    }

    SimResults r;
    r.benchmark = cfg_.benchmark;
    r.core = core_->stats();
    r.ipc = r.core.ipc();
    r.seconds = power_->seconds();
    r.avgPowerW = power_->avgPower();
    r.energyJ = power_->totalEnergy();
    r.edProduct = r.energyJ * r.seconds;
    for (PUnit u : kAllPUnits) {
        auto i = static_cast<std::size_t>(u);
        r.unitEnergyJ[i] = power_->unitEnergy(u);
        r.unitWastedJ[i] = power_->unitWastedEnergy(u);
        r.unitActivity[i] = power_->meanActivity(u);
    }
    r.wastedEnergyJ = power_->wastedEnergy();
    r.condMissRate = bpred_->condMissRate();
    r.spec = core_->confMetrics().spec();
    r.pvn = core_->confMetrics().pvn();
    r.il1MissRate = memory_->il1().missRate();
    r.dl1MissRate = memory_->dl1().missRate();
    r.l2MissRate = memory_->l2().missRate();

    // Flush the core's plain hot-path counters into the process-wide
    // registry once per run; the pipeline itself never touches an
    // atomic, and results are unaffected (observability only).
    {
        const Core::HotCounters &h = core_->hotCounters();
        obs::Registry &reg = obs::Registry::instance();
        reg.counter("core.fetch_groups").inc(h.fetchGroups);
        reg.counter("core.dispatch_src_waiting")
            .inc(h.dispatchSrcWaiting);
        reg.counter("core.dispatch_src_ready").inc(h.dispatchSrcReady);
    }
    return r;
}

std::string
Simulator::warmupClassKey(const SimConfig &cfg)
{
    SimConfig key = cfg;
    key.finalize(); // idempotent; normalizes derived parameters
    key.maxInstructions = 0;
    key.power = PowerParams{};
    return serde::toJson(key);
}

std::string
Simulator::saveSnapshot() const
{
    serde::StateWriter w;
    w.begin("sim");
    w.str("class_key", warmupClassKey(cfg_));
    w.u64("phase", static_cast<std::uint64_t>(phase_));
    workload_->saveState(w);
    bpred_->saveState(w);
    if (confidence_)
        confidence_->saveState(w);
    memory_->saveState(w);
    power_->saveState(w);
    controller_->saveState(w);
    core_->saveState(w);
    w.end("sim");
    return w.take();
}

void
Simulator::restoreSnapshot(std::string_view image)
{
    serde::StateReader r(image);
    r.begin("sim");
    std::string key = r.str("class_key");
    std::string want = warmupClassKey(cfg_);
    if (key != want)
        stsim_fatal("state: snapshot is for a different warmup class "
                    "(benchmark/seed/machine/predictor/throttle config "
                    "must match; only run length and power parameters "
                    "may differ)");
    phase_ = static_cast<Phase>(
        r.u64("phase", static_cast<std::uint64_t>(Phase::Measure)));
    workload_->loadState(r);
    bpred_->loadState(r);
    if (confidence_)
        confidence_->loadState(r);
    memory_->loadState(r);
    power_->loadState(r);
    controller_->loadState(r);
    core_->loadState(r);
    r.end("sim");
    r.finish();
}

RelativeMetrics
RelativeMetrics::compute(const SimResults &baseline,
                         const SimResults &experiment)
{
    RelativeMetrics m;
    if (experiment.ipc > 0.0)
        m.speedup = experiment.ipc / baseline.ipc;
    if (baseline.avgPowerW > 0.0)
        m.powerSavings = 100.0 *
            (baseline.avgPowerW - experiment.avgPowerW) /
            baseline.avgPowerW;
    if (baseline.energyJ > 0.0)
        m.energySavings = 100.0 *
            (baseline.energyJ - experiment.energyJ) / baseline.energyJ;
    if (baseline.edProduct > 0.0)
        m.edImprovement = 100.0 *
            (baseline.edProduct - experiment.edProduct) /
            baseline.edProduct;
    return m;
}

} // namespace stsim
