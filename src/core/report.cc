#include "report.hh"

#include <array>
#include <cstdio>
#include <map>

#include "common/logging.hh"
#include "core/experiment.hh"
#include "core/job_serde.hh"
#include "core/paper.hh"
#include "trace/profile.hh"

namespace stsim
{

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

RelativeMetrics
averageMetrics(const MetricRows &rows)
{
    // RelativeMetrics defaults seed speedup to 1.0 (the "no change"
    // identity); an accumulator must start every field at zero.
    RelativeMetrics avg;
    avg.speedup = 0.0;
    double n = 0.0;
    for (const auto &[name, m] : rows) {
        if (name == "Average")
            continue;
        avg.speedup += m.speedup;
        avg.powerSavings += m.powerSavings;
        avg.energySavings += m.energySavings;
        avg.edImprovement += m.edImprovement;
        n += 1.0;
    }
    stsim_assert(n > 0, "no rows to average (got %zu 'Average'-only rows)",
                 rows.size());
    avg.speedup /= n;
    avg.powerSavings /= n;
    avg.energySavings /= n;
    avg.edImprovement /= n;
    return avg;
}

std::vector<MetricGroup>
relativeGroups(const std::vector<SimJob> &jobs,
               const std::vector<SimResults> &results,
               const std::function<std::string(const SimJob &)> &key)
{
    std::vector<MetricGroup> groups;
    std::map<std::string, std::size_t> baselineOf; // benchmark -> job
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::string &bench = jobs[i].cfg.benchmark;
        if (jobs[i].experiment == "baseline") {
            baselineOf[bench] = i;
            continue;
        }
        auto base = baselineOf.find(bench);
        if (base == baselineOf.end())
            stsim_fatal("job %zu (%s/%s) has no baseline job before it",
                        i, bench.c_str(), jobs[i].experiment.c_str());
        const std::string k = key ? key(jobs[i]) : jobs[i].experiment;
        auto g = groups.begin();
        while (g != groups.end() && g->key != k)
            ++g;
        if (g == groups.end())
            g = groups.insert(g, MetricGroup{k, {}});
        g->rows.emplace_back(bench, RelativeMetrics::compute(
                                        results[base->second], results[i]));
    }
    for (MetricGroup &g : groups)
        g.rows.emplace_back("Average", averageMetrics(g.rows));
    return groups;
}

namespace
{

std::vector<std::string>
metricHeader(const std::string &first)
{
    return {first, "speedup", "power sav", "energy sav", "E-D impr"};
}

std::vector<std::string>
metricCells(const std::string &label, const RelativeMetrics &m)
{
    return {label, TextTable::num(m.speedup, 3),
            TextTable::pct(m.powerSavings), TextTable::pct(m.energySavings),
            TextTable::pct(m.edImprovement)};
}

/** A paper value as the paper prints it ("~0.95", "11-12%"), or "-". */
std::string
paperCell(std::string_view artifact, std::string_view row,
          std::string_view metric, const char *unit)
{
    const paper::Ref *ref = paper::find(artifact, row, metric);
    if (!ref)
        return "-";
    char buf[64];
    if (ref->hi != ref->lo)
        std::snprintf(buf, sizeof buf, "%g-%g", ref->lo, ref->hi);
    else
        std::snprintf(buf, sizeof buf, "%s%g", ref->approx ? "~" : "",
                      ref->lo);
    return buf + std::string(unit);
}

/**
 * The table of group averages. Figures 1, 5, 6 and 7 add the paper's
 * rows for the groups it gives values for; Figure 4's table has none.
 */
void
printAverages(const std::string &suite, const std::string &first,
              const std::string &title,
              const std::vector<MetricGroup> &groups, std::ostream &os)
{
    TextTable t(metricHeader(first));
    t.setTitle(title);
    for (const MetricGroup &g : groups)
        t.addRow(metricCells(g.key, g.rows.back().second));
    if (suite != "fig4") {
        t.addSeparator();
        for (const MetricGroup &g : groups) {
            const std::vector<std::string> cells = {
                "paper " + g.key,
                paperCell(suite, g.key, "speedup", ""),
                paperCell(suite, g.key, "power", "%"),
                paperCell(suite, g.key, "energy", "%"),
                paperCell(suite, g.key, "ed", "%")};
            if (cells != std::vector<std::string>{cells[0], "-", "-", "-",
                                                  "-"})
                t.addRow(cells);
        }
    }
    t.print(os);
}

/** Figures 3-5: a per-benchmark table for each experiment; Figures 4
 *  and 5 close with the table of averages. */
void
printSeries(const std::string &suite, const std::vector<MetricGroup> &groups,
            std::ostream &os)
{
    const std::string fig = "Figure " + suite.substr(3);
    for (const MetricGroup &g : groups) {
        TextTable t = relativeTable("benchmark", g.rows);
        t.setTitle(fig + " / " + g.key + ": " +
                   Experiment::byName(g.key).description);
        t.print(os);
        os << "\n";
    }
    if (suite != "fig3")
        printAverages(suite, "experiment",
                      fig + " summary (averages over 8 benchmarks)",
                      groups, os);
}

void
printAblation(const std::vector<MetricGroup> &groups, std::ostream &os)
{
    // Row label and the experiment it reads; null marks a separator.
    // The C2 rows of the three studies are one set of jobs.
    const std::pair<const char *, const char *> rows[] = {
        {"C2 (BPRU estimator)", "C2"},
        {"C2 (perfect estimator)", "C2-perfect"},
        {nullptr, nullptr},
        {"no-select: none (C1)", "C1"},
        {"no-select: LC only (C2)", "C2"},
        {"no-select: LC+VLC", "c2-vlcns"},
        {nullptr, nullptr},
        {"graded (C2)", "C2"},
        {"all-or-nothing + noselect", "aon"},
    };
    TextTable t(metricHeader("variant"));
    t.setTitle("Ablation: Selective Throttling design choices "
               "(average of 8 benchmarks)");
    for (const auto &[label, exp] : rows) {
        if (!label) {
            t.addSeparator();
            continue;
        }
        for (const MetricGroup &g : groups) {
            if (g.key == exp)
                t.addRow(metricCells(label, g.rows.back().second));
        }
    }
    t.print(os);
}

void
printTable1(const std::vector<SimResults> &results, std::ostream &os)
{
    std::array<double, kNumPUnits> energy{}, wasted{};
    double total_e = 0.0, total_w = 0.0, watts = 0.0;
    for (const SimResults &r : results) {
        for (std::size_t i = 0; i < kNumPUnits; ++i) {
            energy[i] += r.unitEnergyJ[i];
            wasted[i] += r.unitWastedJ[i];
        }
        total_e += r.energyJ;
        total_w += r.wastedEnergyJ;
        watts += r.avgPowerW;
    }

    TextTable t({"unit", "share %", "paper share %", "wasted % of overall",
                 "paper wasted %"});
    t.setTitle("Table 1: power breakdown and mis-speculation waste "
               "(average of 8 benchmarks)");
    for (PUnit u : kAllPUnits) {
        auto i = static_cast<std::size_t>(u);
        t.addRow({punitName(u), TextTable::num(100.0 * energy[i] / total_e, 1),
                  paperCell("table1", punitName(u), "share", ""),
                  TextTable::num(100.0 * wasted[i] / total_e, 1),
                  paperCell("table1", punitName(u), "wasted", "")});
    }
    t.addSeparator();
    t.addRow({"overall",
              TextTable::num(watts / static_cast<double>(results.size()), 1) +
                  " W",
              paperCell("table1", "overall", "watts", " W"),
              TextTable::num(100.0 * total_w / total_e, 1),
              paperCell("table1", "overall", "wasted", "")});
    t.print(os);
}

void
printTable2(const std::vector<SimResults> &results, std::ostream &os)
{
    TextTable t({"benchmark", "gshare miss", "paper miss",
                 "cond-branch frac", "paper frac", "IPC", "il1 MR",
                 "dl1 MR"});
    t.setTitle("Table 2: benchmark characteristics (synthetic "
               "profiles vs paper targets)");
    double miss = 0, target = 0;
    for (const SimResults &r : results) {
        const BenchmarkProfile &prof = findProfile(r.benchmark);
        double frac = static_cast<double>(r.core.committedCondBranches) /
                      static_cast<double>(r.core.committedInsts);
        t.addRow({prof.name, TextTable::pct(100 * r.condMissRate),
                  TextTable::pct(100 * prof.targetMissRate),
                  TextTable::pct(100 * frac),
                  TextTable::pct(100 * prof.condBranchFrac),
                  TextTable::num(r.ipc, 2),
                  TextTable::pct(100 * r.il1MissRate),
                  TextTable::pct(100 * r.dl1MissRate)});
        miss += r.condMissRate;
        target += prof.targetMissRate;
    }
    const double n = static_cast<double>(results.size());
    t.addSeparator();
    t.addRow({"Average", TextTable::pct(100 * miss / n),
              TextTable::pct(100 * target / n), "", "", "", "", ""});
    t.print(os);
}

/** §4.3: each benchmark's SPEC and PVN under each estimator. */
void
printConf(const std::vector<SimJob> &jobs,
          const std::vector<SimResults> &results, std::ostream &os)
{
    // Per benchmark: BPRU's SPEC and PVN, then JRS's.
    using Cells = std::array<double, 4>;
    std::vector<std::pair<std::string, Cells>> rows;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (rows.empty() || rows.back().first != jobs[i].cfg.benchmark)
            rows.emplace_back(jobs[i].cfg.benchmark, Cells{});
        const std::size_t c = jobs[i].cfg.confKind == ConfKind::Jrs ? 2 : 0;
        rows.back().second[c] = results[i].spec;
        rows.back().second[c + 1] = results[i].pvn;
    }
    auto pcts = [](const std::string &label, const Cells &v, double n) {
        return std::vector<std::string>{label, TextTable::pct(100 * v[0] / n),
                                        TextTable::pct(100 * v[1] / n),
                                        TextTable::pct(100 * v[2] / n),
                                        TextTable::pct(100 * v[3] / n)};
    };

    std::vector<std::string> paperRow = {"paper"};
    for (const char *kind : {"bpru", "jrs"})
        for (const char *metric : {"spec", "pvn"})
            paperRow.push_back(paperCell("conf", kind, metric, "%"));
    TextTable t({"bench", "BPRU SPEC", "BPRU PVN", "JRS SPEC", "JRS PVN"});
    t.setTitle("Confidence estimator quality (paper 4.3: BPRU SPEC=" +
               paperRow[1] + "/PVN=" + paperRow[2] + ", JRS SPEC=" +
               paperRow[3] + "/PVN=" + paperRow[4] + ")");
    Cells sum{};
    for (const auto &[bench, v] : rows) {
        t.addRow(pcts(bench, v, 1));
        for (std::size_t c = 0; c < sum.size(); ++c)
            sum[c] += v[c];
    }
    t.addSeparator();
    t.addRow(pcts("Average", sum, static_cast<double>(rows.size())));
    t.addRow(paperRow);
    t.print(os);
}

/** The BPRU update-rule scan: mean SPEC and PVN of each rule's jobs. */
void
printConfScan(const std::vector<SimJob> &jobs,
              const std::vector<SimResults> &results, std::ostream &os)
{
    TextTable t({"missInc", "corrDec", "alloc", "SPEC", "PVN"});
    t.setTitle("BPRU parameter scan (avg of 8 benchmarks)");
    for (std::size_t i = 0; i < jobs.size();) {
        const SimJob &rule = jobs[i];
        double spec = 0, pvn = 0, n = 0;
        for (; i < jobs.size() && jobs[i].experiment == rule.experiment;
             ++i, ++n) {
            spec += results[i].spec;
            pvn += results[i].pvn;
        }
        const BpruEstimator::Params &p = rule.cfg.bpruParams;
        t.addRow({std::to_string(p.missInc), std::to_string(p.correctDec),
                  std::to_string(p.allocValue), TextTable::pct(100 * spec / n),
                  TextTable::pct(100 * pvn / n)});
    }
    t.print(os);
}

/** The golden matrix has no paper table: its raw numbers per job. */
void
printGolden(const std::vector<SimJob> &jobs,
            const std::vector<SimResults> &results, std::ostream &os)
{
    TextTable t({"job", "benchmark", "experiment", "depth", "IPC", "power",
                 "wasted"});
    t.setTitle("Golden matrix: raw metrics per job");
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SimResults &r = results[i];
        t.addRow({std::to_string(i), r.benchmark, r.experiment,
                  std::to_string(jobs[i].cfg.pipelineDepth),
                  TextTable::num(r.ipc, 3),
                  TextTable::num(r.avgPowerW, 1) + " W",
                  TextTable::pct(100 * r.wastedEnergyFrac())});
    }
    t.print(os);
}

} // namespace

TextTable
relativeTable(const std::string &first, const MetricRows &rows)
{
    TextTable t(metricHeader(first));
    for (const auto &[label, m] : rows)
        t.addRow(metricCells(label, m));
    return t;
}

std::vector<SimResults>
readSuiteRecords(std::istream &in, const std::vector<SimJob> &jobs)
{
    std::vector<SimResults> results;
    std::string line;
    for (std::size_t lineNo = 1; std::getline(in, line); ++lineNo) {
        const std::size_t want = results.size();
        if (line.empty() || line[0] != '{')
            stsim_fatal("report: line %zu is not a JSONL result record "
                        "(report reads dump or merge JSONL output)",
                        lineNo);
        std::pair<std::uint64_t, SimResults> rec;
        try {
            FatalCaptureScope scope;
            rec = serde::resultRecordFromJson(line);
        } catch (const FatalError &e) {
            stsim_fatal("report: line %zu: %s", lineNo, e.what());
        }
        if (rec.first != want)
            stsim_fatal("report: line %zu: index %llu where %zu was "
                        "expected (%s record)",
                        lineNo, static_cast<unsigned long long>(rec.first),
                        want, rec.first < want ? "duplicate" : "missing");
        if (want == jobs.size())
            stsim_fatal("report: line %zu: record %zu is past the suite's "
                        "%zu jobs", lineNo, want, jobs.size());
        const SimJob &job = jobs[want];
        const SimResults &r = rec.second;
        if (r.benchmark != job.cfg.benchmark ||
            r.experiment != job.experiment)
            stsim_fatal("report: line %zu: record %zu is %s/%s, but job "
                        "%zu of the suite is %s/%s",
                        lineNo, want, r.benchmark.c_str(),
                        r.experiment.c_str(), want,
                        job.cfg.benchmark.c_str(), job.experiment.c_str());
        results.push_back(std::move(rec.second));
    }
    if (results.size() != jobs.size())
        stsim_fatal("report: %zu records, but the suite has %zu jobs "
                    "(record %zu is missing)",
                    results.size(), jobs.size(), results.size());
    return results;
}

void
printReport(const std::string &suite, const std::vector<SimJob> &jobs,
            const std::vector<SimResults> &results, std::ostream &os)
{
    stsim_assert(jobs.size() == results.size(), "%zu jobs, %zu results",
                 jobs.size(), results.size());
    auto depth = [](const SimJob &j) {
        return std::to_string(j.cfg.pipelineDepth);
    };
    auto budgetKB = [](const SimJob &j) {
        return std::to_string((j.cfg.bpred.predictorBytes + j.cfg.confBytes) /
                              1024);
    };
    if (suite == "golden")
        printGolden(jobs, results, os);
    else if (suite == "fig1")
        printAverages(suite, "experiment",
                      "Figure 1: oracle fetch/decode/select savings "
                      "(average of 8 benchmarks)",
                      relativeGroups(jobs, results), os);
    else if (suite == "fig3" || suite == "fig4" || suite == "fig5")
        printSeries(suite, relativeGroups(jobs, results), os);
    else if (suite == "fig6")
        printAverages(suite, "depth",
                      "Figure 6: pipeline-depth sensitivity of C2 "
                      "(average of 8 benchmarks)",
                      relativeGroups(jobs, results, depth), os);
    else if (suite == "fig7")
        printAverages(suite, "total KB",
                      "Figure 7: predictor + estimator size sensitivity "
                      "of C2 (average of 8 benchmarks)",
                      relativeGroups(jobs, results, budgetKB), os);
    else if (suite == "table1")
        printTable1(results, os);
    else if (suite == "table2")
        printTable2(results, os);
    else if (suite == "conf")
        printConf(jobs, results, os);
    else if (suite == "conf-scan")
        printConfScan(jobs, results, os);
    else if (suite == "ablation")
        printAblation(relativeGroups(jobs, results), os);
    else
        stsim_panic("suite '%s' has no report", suite.c_str());
}

} // namespace stsim
