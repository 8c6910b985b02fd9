/**
 * @file
 * perfbench_layers: the per-layer half of the repository benchmark.
 *
 * It times calls into each module's public API from outside the
 * simulator, so no tracing has to live in src/:
 *
 *   - core: job parse, Simulator construction, warmup, measure,
 *     snapshot save/restore and record serialization, per job, on a
 *     sample of the workload's jobs run one at a time;
 *   - trace/bpred/confidence/throttle/cache/power: "replay" timings
 *     that feed one job's own correct-path stream (Workload::nextGroup)
 *     into a single component and time each call;
 *   - serve: the in-process service time of every serve request
 *     (parse frame + construct + run + serialize), what the daemon
 *     does per request without the socket.
 *
 * It also recomputes every record of the workload in process through
 * runJobs, so the benchmark can require the CLI's bytes to equal the
 * library's.
 *
 * Usage:
 *   perfbench_layers --manifest FILE --records-out FILE
 *                    --serve-manifest FILE [--memoize]
 *
 * Prints one JSON object of metrics on stdout.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bpred/bpred_unit.hh"
#include "cache/hierarchy.hh"
#include "common/arg_parse.hh"
#include "confidence/bpru.hh"
#include "confidence/jrs.hh"
#include "core/experiment.hh"
#include "core/job_serde.hh"
#include "core/parallel_harness.hh"
#include "core/results_sink.hh"
#include "core/simulator.hh"
#include "power/power_model.hh"
#include "throttle/controller.hh"
#include "trace/workload.hh"

using namespace stsim;

namespace
{

using Clock = std::chrono::steady_clock;

/** Workers of the in-process runJobs wave; its records are the same at
 *  any worker count, and the wave is not timed. */
constexpr unsigned kWorkers = 4;

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "perfbench_layers: cannot read %s\n",
                     path.c_str());
        std::exit(2);
    }
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

/** Keeps replay results observable so no timed call is optimized out. */
std::uint64_t g_sink = 0;

/** Time @p reps fresh runs of @p body and return the median in ns. */
template <typename Body>
double
medianRun(int reps, Body body)
{
    std::vector<double> ns;
    for (int i = 0; i < reps; ++i) {
        auto t0 = Clock::now();
        g_sink += body();
        ns.push_back(nsSince(t0));
    }
    return median(ns);
}

struct Metrics
{
    std::map<std::string, double> values;

    void set(const std::string &name, double v) { values[name] = v; }

    void
    print() const
    {
        std::printf("{");
        const char *sep = "";
        for (const auto &[k, v] : values) {
            std::printf("%s\"%s\":%.9g", sep, k.c_str(), v);
            sep = ",";
        }
        std::printf("}\n");
    }
};

/**
 * Replay one job's correct-path stream through each component and
 * record the per-call host time. The stream is generated once (that
 * generation is itself the trace-layer timing); every component then
 * sees the same instructions in fetch order.
 */
void
replayComponents(SimConfig cfg, Metrics &m)
{
    constexpr unsigned kInsts = 400'000;
    constexpr unsigned kGroup = 8; // fetch width of the modelled core
    constexpr int kReps = 5;
    cfg.finalize();
    auto program = Simulator::programFor(cfg.benchmark);

    std::vector<TraceInst> stream(kInsts);
    double genNs = medianRun(kReps, [&] {
        Workload wl(program, cfg.runSeed);
        TraceInst *slots[kGroup];
        unsigned i = 0;
        while (i < kInsts) {
            unsigned n = std::min(kGroup, kInsts - i);
            for (unsigned k = 0; k < n; ++k)
                slots[k] = &stream[i + k];
            i += wl.nextGroup(slots, n);
        }
        return static_cast<std::uint64_t>(stream.back().pc);
    });
    m.set("trace.ns_per_inst", genNs / kInsts);

    std::vector<const TraceInst *> branches, conds, mems;
    for (const TraceInst &ti : stream) {
        if (ti.isBranch())
            branches.push_back(&ti);
        if (ti.isCondBranch())
            conds.push_back(&ti);
        if (isMemory(ti.cls))
            mems.push_back(&ti);
    }

    // bpred: predict at fetch, repair on a miss, train at commit.
    std::vector<BranchPrediction> condPred;
    double bpNs = medianRun(kReps, [&] {
        BpredUnit bp(cfg.bpred);
        condPred.clear();
        std::uint64_t misses = 0;
        for (const TraceInst *ti : branches) {
            BranchPrediction p = bp.predict(*ti);
            bool miss = ti->isCondBranch()
                            ? p.predTaken != ti->taken
                            : ti->cls == InstClass::Return &&
                                  p.predTarget != ti->target;
            if (miss) {
                bp.squashRestore(*ti, p);
                ++misses;
            }
            bp.commitUpdate(*ti, p);
            if (ti->isCondBranch())
                condPred.push_back(p);
        }
        return misses;
    });
    m.set("bpred.ns_per_branch", bpNs / branches.size());

    // confidence: BPRU and JRS estimate + update per conditional branch.
    std::vector<ConfLevel> levels(conds.size());
    double confNs = medianRun(kReps, [&] {
        BpruEstimator bpru(cfg.confBytes, cfg.bpruParams);
        JrsEstimator jrs(cfg.confBytes, cfg.jrsThreshold);
        std::uint64_t acc = 0;
        for (std::size_t i = 0; i < conds.size(); ++i) {
            const TraceInst &ti = *conds[i];
            const BranchPrediction &p = condPred[i];
            bool correct = p.predTaken == ti.taken;
            levels[i] = bpru.estimate(ti.pc, p.histBefore, p.dir, correct);
            acc += static_cast<std::uint64_t>(
                jrs.estimate(ti.pc, p.histBefore, p.dir, correct));
            bpru.update(ti.pc, p.histBefore, correct);
            jrs.update(ti.pc, p.histBefore, correct);
        }
        return acc;
    });
    m.set("confidence.ns_per_branch", confNs / conds.size());

    // throttle: the C2 controller sees each conditional branch fetched,
    // resolved a fixed number of branches later, and a squash of the
    // younger branches whenever the resolving one was mispredicted.
    SimConfig c2 = cfg;
    Experiment::byName("C2").applyTo(c2);
    double thrNs = medianRun(kReps, [&] {
        constexpr std::size_t kLag = 16;
        SpeculationController ctl(c2.specControl);
        std::uint64_t acc = 0;
        for (std::size_t i = 0; i < conds.size(); ++i) {
            ctl.onCondBranchFetched(i + 1, levels[i]);
            if (i < kLag)
                continue;
            std::size_t r = i - kLag;
            ctl.onBranchResolved(r + 1);
            if (condPred[r].predTaken != conds[r]->taken)
                ctl.squashYoungerThan(r + 1);
            acc += ctl.outstanding();
        }
        return acc;
    });
    m.set("throttle.ns_per_branch", thrNs / conds.size());

    // cache: instruction fetch per instruction, data access per memop.
    double fetchNs = medianRun(kReps, [&] {
        MemoryHierarchy mem(cfg.memory);
        std::uint64_t acc = 0;
        for (const TraceInst &ti : stream)
            acc += mem.fetchInst(ti.pc, false).latency;
        return acc;
    });
    m.set("cache.ns_per_fetch", fetchNs / kInsts);
    double dataNs = medianRun(kReps, [&] {
        MemoryHierarchy mem(cfg.memory);
        std::uint64_t acc = 0;
        for (const TraceInst *ti : mems)
            acc += mem.accessData(ti->memAddr, ti->isStore(), false)
                       .latency;
        return acc;
    });
    m.set("cache.ns_per_data", dataNs / mems.size());

    // power: one fetch group's activity recorded per simulated cycle.
    const std::uint64_t cycles = kInsts / kGroup;
    double powNs = medianRun(kReps, [&] {
        PowerModel pm(cfg.power);
        for (std::uint64_t c = 0; c < cycles; ++c) {
            pm.beginCycle();
            pm.record(PUnit::ICache, 1);
            pm.record(PUnit::Bpred, 1);
            pm.record(PUnit::Rename, kGroup);
            pm.record(PUnit::Regfile, kGroup);
            pm.record(PUnit::Window, kGroup);
            pm.record(PUnit::Alu, kGroup);
            pm.record(PUnit::Lsq, 2);
            pm.record(PUnit::DCache, 2);
            pm.record(PUnit::ResultBus, kGroup);
            pm.endCycle();
        }
        return static_cast<std::uint64_t>(pm.totalEnergy() * 1e12);
    });
    m.set("power.ns_per_cycle", powNs / cycles);
}

} // namespace

int
main(int argc, char **argv)
{
    const char *usage = "usage: perfbench_layers --manifest FILE "
                        "--records-out FILE --serve-manifest FILE "
                        "[--memoize]\n";
    args::Diag diag;
    diag.missingValue = [usage](const char *flag) {
        std::fprintf(stderr, "perfbench_layers: %s needs a value\n%s", flag,
                     usage);
        std::exit(2);
    };
    diag.unknown = [usage](const char *arg) {
        std::fprintf(stderr, "perfbench_layers: unknown flag %s\n%s", arg,
                     usage);
        std::exit(2);
    };
    std::string manifest, recordsOut, serveManifest;
    bool memoize = false;
    args::FlagSet fs(diag);
    fs.str("--manifest", "FILE", &manifest)
        .str("--records-out", "FILE", &recordsOut)
        .str("--serve-manifest", "FILE", &serveManifest)
        .boolean("--memoize", &memoize);
    fs.parse(argc, argv, 1);
    if (manifest.empty() || recordsOut.empty() || serveManifest.empty()) {
        std::fputs(usage, stderr);
        return 2;
    }
    Metrics m;
    std::vector<std::string> lines = readLines(manifest);

    // trace: program construction, timed on the first (uncached) call.
    {
        std::vector<double> ms;
        std::set<std::string> built;
        for (const std::string &line : lines) {
            SimJob j = serde::jobFromJson(line);
            if (!built.insert(j.cfg.benchmark).second)
                continue;
            auto t0 = Clock::now();
            auto program = Simulator::programFor(j.cfg.benchmark);
            ms.push_back(nsSince(t0) / 1e6);
            g_sink += program->numBlocks();
        }
        m.set("trace.program_build_ms", median(ms));
    }

    // core: parse every manifest line (three passes, median per line).
    std::vector<SimJob> jobs;
    {
        std::vector<double> us;
        for (int pass = 0; pass < 3; ++pass) {
            for (const std::string &line : lines) {
                auto t0 = Clock::now();
                SimJob j = serde::jobFromJson(line);
                us.push_back(nsSince(t0) / 1e3);
                if (pass == 0)
                    jobs.push_back(std::move(j));
            }
        }
        m.set("core.parse_us", median(us));
    }

    // The whole workload in process, through the public batch engine.
    {
        std::ofstream out(recordsOut);
        JsonlResultsSink sink(out);
        RunOptions opts;
        opts.workers = kWorkers;
        opts.memoizeWarmup = memoize;
        StreamStats st = runJobs(jobs, sink, opts);
        out.close();
        if (!out) {
            std::fprintf(stderr, "perfbench_layers: cannot write %s\n",
                         recordsOut.c_str());
            return 2;
        }
        m.set("core.warmups_run", static_cast<double>(st.warmupsRun));
    }

    // core phases, one job at a time on a sample that walks the job
    // list diagonally so it spans benchmarks and experiments alike.
    {
        const std::size_t n = jobs.size();
        const std::size_t sample = std::min<std::size_t>(8, n);
        std::vector<double> construct, warm, save, restore, measure,
            serialize, kb;
        double measureNs = 0, cycles = 0, insts = 0;
        for (std::size_t s = 0; s < sample; ++s) {
            std::size_t idx = (s * (n / sample) + s) % n;
            const SimJob &job = jobs[idx];
            auto t0 = Clock::now();
            Simulator sim(job.cfg);
            construct.push_back(nsSince(t0) / 1e3);
            t0 = Clock::now();
            sim.runWarmup();
            warm.push_back(nsSince(t0) / 1e6);
            t0 = Clock::now();
            std::string img = sim.saveSnapshot();
            save.push_back(nsSince(t0) / 1e6);
            kb.push_back(img.size() / 1024.0);
            Simulator fork(job.cfg);
            t0 = Clock::now();
            fork.restoreSnapshot(img);
            restore.push_back(nsSince(t0) / 1e6);
            t0 = Clock::now();
            SimResults r = fork.run();
            double ns = nsSince(t0);
            measure.push_back(ns / 1e6);
            measureNs += ns;
            cycles += static_cast<double>(r.core.cycles);
            insts += static_cast<double>(r.core.committedInsts);
            r.experiment = job.experiment;
            t0 = Clock::now();
            std::string rec = serde::resultRecordToJson(idx, r);
            serialize.push_back(nsSince(t0) / 1e3);
            g_sink += rec.size();
        }
        m.set("core.construct_us", median(construct));
        m.set("core.warmup_ms", median(warm));
        m.set("core.snapshot_save_ms", median(save));
        m.set("core.snapshot_restore_ms", median(restore));
        m.set("core.snapshot_kb", median(kb));
        m.set("core.measure_ms", median(measure));
        m.set("core.serialize_us", median(serialize));
        m.set("pipeline.minst_per_s", insts / (measureNs / 1e9) / 1e6);
        m.set("pipeline.ns_per_cycle", measureNs / cycles);
    }

    replayComponents(jobs.front().cfg, m);

    // serve: per-request service time without the socket, one pass over
    // every distinct request of the serve mix.
    {
        std::vector<std::string> reqs = readLines(serveManifest);
        std::vector<double> ms;
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            std::string frame =
                "{\"id\":" + std::to_string(i) + "," + reqs[i].substr(1);
            auto t0 = Clock::now();
            serde::ServeRequest req;
            if (!serde::parseServeRequest(frame, req)) {
                std::fprintf(stderr, "perfbench_layers: bad serve "
                                     "request %zu\n", i);
                return 1;
            }
            Simulator sim(req.job.cfg);
            SimResults r = sim.run();
            r.experiment = req.job.experiment;
            std::string reply = serde::resultRecordToJson(req.id, r);
            ms.push_back(nsSince(t0) / 1e6);
            g_sink += reply.size();
        }
        m.set("serve.service_ms", median(ms));
    }

    m.print();
    std::fprintf(stderr, "perfbench_layers: checksum %llu\n",
                 static_cast<unsigned long long>(g_sink));
    return 0;
}
