/**
 * @file
 * Calibration tool: runs the baseline machine on every benchmark
 * profile and reports the quantities the synthetic workloads must
 * reproduce (Table 2 targets) plus the power-model activity factors
 * used to derive PowerParams::calibratedDefaults().
 *
 * The eight runs execute as one parallel wave through the streaming
 * results sink (the same commit path the sharded runner uses); with
 * --out the full per-benchmark SimResults also stream to disk as
 * JSONL (or CSV when FILE ends in .csv).
 *
 * Usage: workload_calibration [instructions] [--out FILE]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <iostream>

#include "common/table.hh"
#include "core/experiment.hh"
#include "core/parallel_harness.hh"
#include "core/results_sink.hh"
#include "trace/profile.hh"

using namespace stsim;

int
main(int argc, char **argv)
{
    std::uint64_t insts = 1'000'000;
    std::string out_path;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--out")) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--out needs a value\n");
                return 2;
            }
            out_path = argv[++i];
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr, "unknown flag %s\n", argv[i]);
            return 2;
        } else {
            char *end = nullptr;
            insts = std::strtoull(argv[i], &end, 10);
            if (!end || *end != '\0' || insts == 0) {
                std::fprintf(stderr, "bad instruction count '%s'\n",
                             argv[i]);
                return 2;
            }
        }
    }

    std::vector<SimJob> jobs;
    for (const auto &prof : specProfiles()) {
        SimJob j;
        j.cfg.benchmark = prof.name;
        j.cfg.maxInstructions = insts;
        Experiment::byName("baseline").applyTo(j.cfg);
        j.experiment = "baseline";
        jobs.push_back(std::move(j));
    }

    std::unique_ptr<ResultsSink> file_sink =
        out_path.empty()
            ? std::unique_ptr<ResultsSink>(
                  std::make_unique<NullResultsSink>())
            : openSink(out_path);

    TextTable table({"bench", "IPC", "missRate", "target", "brFrac",
                     "tgtBr", "wrongFetch", "wrDisp", "wrIssue",
                     "il1MR", "dl1MR", "power W", "wasteE%"});
    table.setTitle("Workload calibration vs Table 2 targets");

    std::array<double, kNumPUnits> act{};
    std::array<double, kNumPUnits> energyShare{};
    double total_energy = 0.0;

    // Fold each result into the report as it commits; nothing but the
    // table rows and the per-unit accumulators stays in memory.
    class CalibrationTee : public TeeSink
    {
      public:
        CalibrationTee(ResultsSink &inner, TextTable &table,
                       std::array<double, kNumPUnits> &act,
                       std::array<double, kNumPUnits> &share,
                       double &total_energy)
            : TeeSink(inner), table_(table), act_(act), share_(share),
              totalEnergy_(total_energy)
        {
        }

      protected:
        void
        onResult(std::uint64_t, const SimResults &r) override
        {
            const BenchmarkProfile &prof = findProfile(r.benchmark);
            double br_frac =
                static_cast<double>(r.core.committedCondBranches) /
                r.core.committedInsts;
            table_.addRow(
                {prof.name, TextTable::num(r.ipc, 3),
                 TextTable::pct(100 * r.condMissRate),
                 TextTable::pct(100 * prof.targetMissRate),
                 TextTable::pct(100 * br_frac),
                 TextTable::pct(100 * prof.condBranchFrac),
                 TextTable::pct(100 * r.core.wrongPathFetchFrac()),
                 TextTable::pct(
                     100.0 * r.core.dispatchedWrongPath /
                     std::max<Counter>(1, r.core.dispatchedInsts)),
                 TextTable::pct(
                     100.0 * r.core.issuedWrongPath /
                     std::max<Counter>(1, r.core.issuedInsts)),
                 TextTable::pct(100 * r.il1MissRate),
                 TextTable::pct(100 * r.dl1MissRate),
                 TextTable::num(r.avgPowerW, 1),
                 TextTable::pct(100 * r.wastedEnergyFrac())});
            for (PUnit u : kAllPUnits) {
                auto i = static_cast<std::size_t>(u);
                act_[i] += r.unitActivity[i];
                share_[i] += r.unitEnergyJ[i];
            }
            totalEnergy_ += r.energyJ;
        }

      private:
        TextTable &table_;
        std::array<double, kNumPUnits> &act_;
        std::array<double, kNumPUnits> &share_;
        double &totalEnergy_;
    };

    CalibrationTee tee(*file_sink, table, act, energyShare,
                       total_energy);
    try {
        runJobs(jobs, tee);
    } catch (const SinkWriteError &) {
        outputWriteFailed("workload_calibration --out", out_path);
    }
    table.print(std::cout);

    std::printf("\nPer-unit mean activity factors and energy shares "
                "(average of 8 benchmarks):\n");
    for (PUnit u : kAllPUnits) {
        auto i = static_cast<std::size_t>(u);
        std::printf("  %-10s act=%.3f  share=%.1f%%\n", punitName(u),
                    act[i] / 8.0, 100.0 * energyShare[i] / total_energy);
    }
    std::printf("\nTable 1 target shares: icache 10.0 bpred 3.8 "
                "regfile 1.6 rename 1.1 window 18.2 lsq 1.9 alu 8.7 "
                "dcache 10.6 dcache2 0.7 resultbus 9.5 clock 33.8 "
                "(56.4 W total)\n");
    return 0;
}
