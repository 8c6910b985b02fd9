/**
 * @file
 * Policy explorer: run any named experiment on chosen benchmarks and
 * print the four paper metrics against each benchmark's baseline.
 *
 * Usage:
 *   policy_explorer [--exp NAME[,NAME...]] [--bench NAME|all]
 *                   [--insts N] [--bpru inc,dec,alloc] [--depth D]
 *                   [--out FILE] [--format jsonl|csv]
 *
 * The baselines and every experiment run as one parallel wave
 * (STSIM_JOBS workers), and each experiment prints one table with a row
 * per benchmark and their average. With --out, every full SimResults
 * -- the baselines first, then the experiments -- is streamed to FILE
 * through the results sink as jobs complete (JSONL by default, or CSV;
 * .csv extensions auto-select CSV). The tables printed to stdout stay
 * the same.
 *
 * Examples:
 *   policy_explorer --exp C2 --bench all
 *   policy_explorer --exp A5,C2,PG --bench all --out sweep.csv
 *   policy_explorer --exp A5 --bench go --insts 2000000
 *   policy_explorer --exp C2 --bpru 4,1,3
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/arg_parse.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "core/results_sink.hh"
#include "trace/profile.hh"

using namespace stsim;

namespace
{

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "policy_explorer: %s\n", msg.c_str());
    std::exit(2);
}

args::Diag
explorerDiag()
{
    args::Diag d;
    d.missingValue = [](const char *flag) {
        usageError(std::string(flag) + " needs a value");
    };
    d.unknown = [](const char *arg) {
        usageError("unknown flag " + std::string(arg));
    };
    d.badValue = [](const char *flag, const char *value) {
        usageError("bad " + std::string(flag) + " '" + value + "'");
    };
    d.notPositive = [](const char *flag) {
        usageError(std::string(flag) + " must be positive");
    };
    return d;
}

/** Split "a,b,c" into its non-empty names. */
std::vector<std::string>
splitNames(const std::string &list)
{
    std::vector<std::string> names;
    std::size_t pos = 0;
    while (pos <= list.size()) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        if (comma > pos)
            names.push_back(list.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return names;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string expList = "C2";
    std::string bench = "all";
    std::string outPath;
    std::string format;
    SimConfig base;

    args::FlagSet fs(explorerDiag());
    fs.str("--exp", "NAME[,NAME...]", &expList)
        .str("--bench", "NAME|all", &bench)
        .u64Positive("--insts", "N", &base.maxInstructions)
        .u64("--depth", "D", &base.pipelineDepth)
        .flag("--bpru", "inc,dec,alloc",
              [&](const char *v) {
                  unsigned inc, dec, alloc;
                  char tail;
                  if (std::sscanf(v, "%u,%u,%u%c", &inc, &dec, &alloc,
                                  &tail) != 3)
                      usageError("--bpru wants inc,dec,alloc");
                  base.bpruParams.missInc = inc;
                  base.bpruParams.correctDec = dec;
                  base.bpruParams.allocValue = alloc;
              })
        .str("--out", "FILE", &outPath)
        .str("--format", "jsonl|csv", &format);
    fs.parse(argc, argv, 1);

    std::vector<Experiment> exps;
    for (const std::string &name : splitNames(expList))
        exps.push_back(Experiment::byName(name));
    if (exps.empty())
        usageError("--exp needs at least one name");
    if (outPath.empty() && !format.empty())
        usageError("--format requires --out");
    const std::vector<std::string> benches =
        bench == "all" ? benchmarkNames() : std::vector<std::string>{bench};

    // One wave: the baselines, then every experiment over the
    // benchmarks -- the layout relativeGroups() compares.
    std::vector<SimJob> jobs;
    auto addJobs = [&](const Experiment &exp) {
        for (const std::string &b : benches) {
            SimJob j{base, exp.name};
            j.cfg.benchmark = b;
            exp.applyTo(j.cfg);
            jobs.push_back(std::move(j));
        }
    };
    addJobs(Experiment::byName("baseline"));
    for (const Experiment &exp : exps)
        addJobs(exp);

    // Full per-run results go to --out as jobs complete.
    std::unique_ptr<ResultsSink> sink =
        outPath.empty() ? std::make_unique<NullResultsSink>()
                        : openSink(outPath, format);
    std::vector<SimResults> results(jobs.size());
    class Keep : public TeeSink
    {
      public:
        Keep(ResultsSink &inner, std::vector<SimResults> &out)
            : TeeSink(inner), out_(out)
        {
        }

      protected:
        void
        onResult(std::uint64_t index, const SimResults &r) override
        {
            out_[index] = r;
        }

      private:
        std::vector<SimResults> &out_;
    };
    Keep keep(*sink, results);
    try {
        runJobs(jobs, keep);
    } catch (const SinkWriteError &) {
        outputWriteFailed("policy_explorer --out", outPath);
    }

    std::vector<MetricGroup> groups = relativeGroups(jobs, results);
    for (std::size_t i = 0; i < groups.size(); ++i) {
        const Experiment exp = Experiment::byName(groups[i].key);
        TextTable t = relativeTable("bench", groups[i].rows);
        t.setTitle("Experiment " + exp.name + " (" + exp.description + ")");
        t.print(std::cout);
        if (i + 1 < groups.size())
            std::cout << "\n";
    }
    return 0;
}
