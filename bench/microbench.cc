/**
 * @file
 * google-benchmark microbenchmarks of the substrate hot paths:
 * predictor lookups, cache accesses, workload generation and
 * whole-core simulation throughput.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "bpred/gshare.hh"
#include "cache/cache.hh"
#include "common/scan_mask.hh"
#include "confidence/bpru.hh"
#include "confidence/jrs.hh"
#include "core/experiment.hh"
#include "core/simulator.hh"
#include "trace/workload.hh"

using namespace stsim;

namespace
{

void
BM_GsharePredictUpdate(benchmark::State &state)
{
    Gshare g(8 * 1024);
    Rng rng(1);
    std::uint64_t hist = 0;
    for (auto _ : state) {
        Addr pc = 0x400000 + 4 * (rng.next() & 0xFFFF);
        auto p = g.predict(pc, hist);
        bool taken = rng.chance(0.6);
        g.update(pc, hist, taken);
        hist = (hist << 1) | taken;
        benchmark::DoNotOptimize(p.taken);
    }
}
BENCHMARK(BM_GsharePredictUpdate);

void
BM_JrsEstimate(benchmark::State &state)
{
    JrsEstimator jrs(8 * 1024, 12);
    Rng rng(2);
    DirectionPredictor::Prediction dir{true, 3, 3};
    for (auto _ : state) {
        Addr pc = 0x400000 + 4 * (rng.next() & 0xFFFF);
        benchmark::DoNotOptimize(jrs.estimate(pc, rng.next(), dir,
                                              true));
        jrs.update(pc, 0, rng.chance(0.9));
    }
}
BENCHMARK(BM_JrsEstimate);

void
BM_BpruEstimate(benchmark::State &state)
{
    BpruEstimator bpru(8 * 1024);
    Rng rng(3);
    DirectionPredictor::Prediction dir{true, 3, 3};
    for (auto _ : state) {
        Addr pc = 0x400000 + 4 * (rng.next() & 0xFFFF);
        benchmark::DoNotOptimize(bpru.estimate(pc, rng.next(), dir,
                                               true));
        bpru.update(pc, 0, rng.chance(0.9));
    }
}
BENCHMARK(BM_BpruEstimate);

void
BM_CacheAccess(benchmark::State &state)
{
    Cache c({"bm", 64 * 1024, 2, 32, 1});
    Rng rng(4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            c.access(rng.next() & 0x3FFFF, false, false));
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_WorkloadGeneration(benchmark::State &state)
{
    auto prog = Simulator::programFor("go");
    Workload w(prog, 5);
    for (auto _ : state)
        benchmark::DoNotOptimize(w.next().pc);
}
BENCHMARK(BM_WorkloadGeneration);

void
BM_FetchGroupGen(benchmark::State &state)
{
    // Batched fetch-group generation: the bulk Workload walker filling
    // an 8-wide group buffer, counted in generated instructions.
    auto prog = Simulator::programFor("go");
    Workload w(prog, 5);
    TraceInst buf[8];
    TraceInst *out[8];
    for (int i = 0; i < 8; ++i)
        out[i] = &buf[i];
    std::uint64_t insts = 0;
    for (auto _ : state) {
        const unsigned m = w.nextGroup(out, 8);
        insts += m;
        benchmark::DoNotOptimize(buf[m - 1].pc);
    }
    state.counters["inst/s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FetchGroupGen);

void
BM_StoreScan(benchmark::State &state)
{
    // LSQ-style memory-ordering scan: a sliding 64-entry occupancy
    // with sparse store bits, one bounded find-first per load (the
    // loadMayIssue / tryForward pattern).
    ScanMask m;
    m.init(64);
    Rng rng(7);
    std::uint64_t base = 0;
    std::uint64_t tail = 0;
    for (; tail < 64; ++tail)
        if (rng.chance(0.2))
            m.set(tail);
    for (auto _ : state) {
        m.clear(base); // oldest entry retires
        ++base;
        if (rng.chance(0.2))
            m.set(tail); // a new store dispatches
        ++tail;
        benchmark::DoNotOptimize(m.firstSet(base, tail));
    }
}
BENCHMARK(BM_StoreScan);

void
BM_CoreSimulation(benchmark::State &state)
{
    // Whole-machine throughput in committed instructions/second.
    SimConfig cfg;
    cfg.benchmark = "crafty";
    cfg.maxInstructions = 50'000;
    cfg.warmupInstructions = 10'000;
    Experiment::byName("baseline").applyTo(cfg);
    std::uint64_t insts = 0;
    for (auto _ : state) {
        SimResults r = Simulator(cfg).run();
        insts += r.core.committedInsts;
        benchmark::DoNotOptimize(r.ipc);
    }
    state.counters["inst/s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CoreSimulation)->Unit(benchmark::kMillisecond);

void
BM_CoreSimulationC2(benchmark::State &state)
{
    SimConfig cfg;
    cfg.benchmark = "crafty";
    cfg.maxInstructions = 50'000;
    cfg.warmupInstructions = 10'000;
    Experiment::byName("C2").applyTo(cfg);
    for (auto _ : state) {
        SimResults r = Simulator(cfg).run();
        benchmark::DoNotOptimize(r.energyJ);
    }
}
BENCHMARK(BM_CoreSimulationC2)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
