#include "simulator.hh"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <map>
#include <mutex>
#include <numeric>

#include "common/logging.hh"
#include "confidence/bpru.hh"
#include "confidence/jrs.hh"
#include "confidence/perfect.hh"
#include "core/job_serde.hh"
#include "core/state_serde.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
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

namespace
{

/**
 * The programs shared by every Simulator in the process, by benchmark
 * name. An entry holds null while the thread that created it builds
 * the program; every other caller waits on `built` for that build.
 */
struct ProgramCache
{
    std::mutex mu;
    std::condition_variable built;
    std::map<std::string, std::shared_ptr<const StaticProgram>> programs;
};

ProgramCache &
programCache()
{
    static ProgramCache cache;
    return cache;
}

} // namespace

std::shared_ptr<const StaticProgram>
Simulator::programFor(const std::string &benchmark)
{
    // Validate before the cache sees the name: an unknown (hostile)
    // name fatals here and never gets an entry.
    const BenchmarkProfile &profile = findProfile(benchmark);
    ProgramCache &cache = programCache();
    std::unique_lock<std::mutex> lock(cache.mu);
    for (;;) {
        auto [it, inserted] = cache.programs.try_emplace(benchmark);
        if (inserted)
            break;
        if (it->second)
            return it->second;
        // Another thread is building it. If that build throws, the
        // entry is gone when we wake and this thread builds instead.
        cache.built.wait(lock);
    }
    lock.unlock();

    // Build outside the lock, so other benchmarks build in parallel.
    std::shared_ptr<const StaticProgram> prog;
    try {
        TRACE_SPAN("program.build");
        prog = std::make_shared<const StaticProgram>(profile);
    } catch (...) {
        lock.lock();
        cache.programs.erase(benchmark);
        cache.built.notify_all();
        throw;
    }
    static obs::Counter &builds =
        obs::Registry::instance().counter("sim.program_builds");
    builds.inc();
    lock.lock();
    cache.programs[benchmark] = prog;
    cache.built.notify_all();
    return prog;
}

std::size_t
Simulator::cachedPrograms()
{
    ProgramCache &cache = programCache();
    std::lock_guard<std::mutex> lock(cache.mu);
    return cache.programs.size();
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
    runWarmup(cancel);
    return std::move(measure({{&cfg_, power_.get()}}, cancel).front());
}

namespace
{

/** Every power parameter's bytes: configs meter alike exactly when
 *  these match (value equality would let +0.0 and -0.0 share). */
std::string
powerBits(const PowerParams &p)
{
    std::string bits;
    visitFields(p, [&](const char *, const auto &field) {
        bits.append(reinterpret_cast<const char *>(&field), sizeof field);
    });
    return bits;
}

} // namespace

std::vector<SimResults>
Simulator::runSweep(const std::vector<SimConfig> &cfgs,
                    const CancelToken *cancel)
{
    // Check every config before the warmup they would wait on.
    const std::string key = warmupClassKey(cfg_);
    std::vector<PowerParams> powers;
    powers.reserve(cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        SimConfig f = cfgs[i];
        f.finalize();
        if (warmupClassKey(f) != key)
            stsim_fatal("runSweep: config %zu (%s, runSeed %llu) is not in "
                        "this machine's warmup class (%s, runSeed %llu): "
                        "benchmark/seed/machine/predictor/throttle config "
                        "must match; only run length and power parameters "
                        "may differ",
                        i, f.benchmark.c_str(),
                        static_cast<unsigned long long>(f.runSeed),
                        cfg_.benchmark.c_str(),
                        static_cast<unsigned long long>(cfg_.runSeed));
        powers.push_back(f.power);
    }
    runWarmup(cancel);

    // One extra meter per distinct power set, detached on every exit
    // (declared after the meters, so it runs first) so that power_
    // never holds a pointer past its meter.
    std::map<std::string, std::unique_ptr<PowerModel>> meters;
    struct Detach
    {
        PowerModel &power;
        ~Detach() { power.clearMeters(); }
    } detach{*power_};
    const std::string own = powerBits(cfg_.power);
    std::vector<Stop> stops;
    stops.reserve(cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        std::string bits = powerBits(powers[i]);
        const PowerModel *meter = power_.get();
        if (bits != own) {
            auto [it, fresh] = meters.try_emplace(std::move(bits));
            if (fresh) {
                it->second = std::make_unique<PowerModel>(powers[i]);
                power_->addMeter(*it->second);
            }
            meter = it->second.get();
        }
        stops.push_back({&cfgs[i], meter});
    }
    return measure(stops, cancel);
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

std::vector<SimResults>
Simulator::measure(const std::vector<Stop> &stops, const CancelToken *cancel)
{
    stsim_assert(phase_ == Phase::Measure,
                 "measure before warmup completed");
    constexpr Cycle kCancelPollMask = 2047;

    // A shorter run is a prefix of a longer one: visit the stops by
    // run length and collect each where its own run would stop.
    auto length = [&](std::size_t i) {
        return stops[i].cfg->maxInstructions;
    };
    std::vector<std::size_t> order(stops.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return length(a) < length(b);
              });

    std::vector<SimResults> out(stops.size());
    const Cycle start = core_->now();
    for (std::size_t k = 0; k < order.size();) {
        // The shortest pending run's bound is where its own run would
        // panic; every longer run's bound is looser.
        const std::uint64_t target = length(order[k]);
        const Cycle max_cycles =
            static_cast<Cycle>(target) * 64 + 1'000'000;
        while (core_->stats().committedInsts < target) {
            core_->tick();
            if (cancel && (core_->now() & kCancelPollMask) == 0 &&
                cancel->cancelled()) {
                throw JobCancelled();
            }
            if (core_->now() - start > max_cycles)
                stsim_panic(
                    "simulation ran away: %llu cycles for %llu insts",
                    static_cast<unsigned long long>(core_->now() - start),
                    static_cast<unsigned long long>(
                        core_->stats().committedInsts));
        }
        // Every run whose target has committed stops at this cycle.
        for (; k < order.size() &&
               length(order[k]) <= core_->stats().committedInsts;
             ++k) {
            const Stop &stop = stops[order[k]];
            SimResults &r = out[order[k]];
            r = collect(*stop.meter);
#ifndef NDEBUG
            std::vector<std::string> bad = checkInvariants(*stop.cfg, r);
            if (!bad.empty())
                stsim_panic("record invariant violated: %s",
                            bad.front().c_str());
#endif
        }
    }

    // Flush the core's plain hot-path counters into the process-wide
    // registry once per measure loop, not per collected run, so a sweep
    // counts its machine once; the pipeline itself never touches an
    // atomic, and results are unaffected (observability only).
    const Core::HotCounters &h = core_->hotCounters();
    obs::Registry &reg = obs::Registry::instance();
    reg.counter("core.fetch_groups").inc(h.fetchGroups);
    reg.counter("core.dispatch_src_waiting").inc(h.dispatchSrcWaiting);
    reg.counter("core.dispatch_src_ready").inc(h.dispatchSrcReady);
    return out;
}

SimResults
Simulator::collect(const PowerModel &meter) const
{
    SimResults r;
    r.benchmark = cfg_.benchmark;
    r.core = core_->stats();
    r.ipc = r.core.ipc();
    r.seconds = meter.seconds();
    r.avgPowerW = meter.avgPower();
    r.energyJ = meter.totalEnergy();
    r.edProduct = r.energyJ * r.seconds;
    for (PUnit u : kAllPUnits) {
        auto i = static_cast<std::size_t>(u);
        r.unitEnergyJ[i] = meter.unitEnergy(u);
        r.unitWastedJ[i] = meter.unitWastedEnergy(u);
        r.unitActivity[i] = meter.meanActivity(u);
    }
    r.wastedEnergyJ = meter.wastedEnergy();
    r.condMissRate = bpred_->condMissRate();
    r.spec = core_->confMetrics().spec();
    r.pvn = core_->confMetrics().pvn();
    r.il1MissRate = memory_->il1().missRate();
    r.dl1MissRate = memory_->dl1().missRate();
    r.l2MissRate = memory_->l2().missRate();
    return r;
}

std::vector<std::string>
checkInvariants(const SimConfig &cfg, const SimResults &r)
{
    std::vector<std::string> bad;
    const CoreStats &c = r.core;
    if (c.committedInsts < cfg.maxInstructions ||
        c.committedInsts - cfg.maxInstructions >= cfg.core.commitWidth)
        bad.push_back(detail::formatStr(
            "committed %llu for %llu requested",
            static_cast<unsigned long long>(c.committedInsts),
            static_cast<unsigned long long>(cfg.maxInstructions)));
    double units = 0.0;
    for (double e : r.unitEnergyJ)
        units += e;
    if (!(std::abs(units - r.energyJ) <=
          1e-12 * std::max(std::abs(units), std::abs(r.energyJ))))
        bad.push_back(detail::formatStr(
            "unit energies sum to %a, energyJ %a", units, r.energyJ));
    if (!(0.0 <= r.wastedEnergyJ && r.wastedEnergyJ <= r.energyJ))
        bad.push_back(detail::formatStr(
            "wastedEnergyJ %a outside [0, energyJ %a]", r.wastedEnergyJ,
            r.energyJ));
    const struct
    {
        const char *stage;
        Counter wrong, total;
    } stages[] = {
        {"fetch", c.fetchedWrongPath, c.fetchedInsts},
        {"decode", c.decodedWrongPath, c.decodedInsts},
        {"dispatch", c.dispatchedWrongPath, c.dispatchedInsts},
        {"issue", c.issuedWrongPath, c.issuedInsts},
    };
    for (const auto &s : stages) {
        if (s.wrong > s.total)
            bad.push_back(detail::formatStr(
                "%s wrong-path %llu > total %llu", s.stage,
                static_cast<unsigned long long>(s.wrong),
                static_cast<unsigned long long>(s.total)));
    }
    return bad;
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
    serde::StateIO io(w);
    // Saving walks the restore's list; it writes no field.
    const_cast<Simulator *>(this)->state(io);
    return w.take();
}

void
Simulator::restoreSnapshot(std::string_view image)
{
    serde::StateReader r(image);
    serde::StateIO io(r);
    state(io);
    r.finish();
}

void
Simulator::state(serde::StateIO &io)
{
    io.begin("sim");
    const std::string want = warmupClassKey(cfg_);
    std::string key = want;
    io.str("class_key", key);
    if (key != want)
        stsim_fatal("state: snapshot is for a different warmup class "
                    "(benchmark/seed/machine/predictor/throttle config "
                    "must match; only run length and power parameters "
                    "may differ)");
    io.u64("phase", phase_, static_cast<std::uint64_t>(Phase::Measure));
    workload_->state(io);
    bpred_->state(io);
    if (confidence_)
        confidence_->state(io);
    memory_->state(io);
    power_->state(io);
    controller_->state(io);
    core_->state(io);
    io.end("sim");
}

} // namespace stsim
