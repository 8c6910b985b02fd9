#include "paper.hh"

namespace stsim::paper
{

namespace
{

Ref
at(std::string_view artifact, std::string_view row,
   std::string_view metric, double v, std::string_view cite)
{
    return {artifact, row, metric, v, v, false, cite};
}

Ref
about(std::string_view artifact, std::string_view row,
      std::string_view metric, double v, std::string_view cite)
{
    return {artifact, row, metric, v, v, true, cite};
}

Ref
range(std::string_view artifact, std::string_view row,
      std::string_view metric, double lo, double hi,
      std::string_view cite)
{
    return {artifact, row, metric, lo, hi, false, cite};
}

constexpr std::string_view kFig1 = "Figure 1, average bars";
constexpr std::string_view kFig3 = "Figure 3, average bars";
constexpr std::string_view kFig3Slow =
    "Figure 3: A1-A3 slow down by less than 1%";
constexpr std::string_view kFig3Best =
    "Figure 3: A5 is the best trade-off";
constexpr std::string_view kFig4 = "Figure 4, average bars";
constexpr std::string_view kFig5 = "Figure 5, average bars";
constexpr std::string_view kFig5Go = "Figure 5, C2 on go";
constexpr std::string_view kFig5NoSelect =
    "Figure 5: no-select adds ~2% energy savings for ~2% slowdown, "
    "E-D roughly flat";
constexpr std::string_view kFig6 = "Figure 6 (5.3.1), average bars";
constexpr std::string_view kFig6Slow =
    "Figure 6: C2 slows down 5-6% at every depth";
constexpr std::string_view kFig7 = "Figure 7 (5.3.2), average bars";
constexpr std::string_view kTable1 = "Table 1";
constexpr std::string_view kConf = "Section 4.3";

} // namespace

const std::vector<Ref> &
references()
{
    static const std::vector<Ref> refs = {
        at("fig1", "oracle-fetch", "speedup", 1.05, kFig1),
        at("fig1", "oracle-fetch", "power", 21.0, kFig1),
        at("fig1", "oracle-fetch", "energy", 24.0, kFig1),
        at("fig1", "oracle-fetch", "ed", 28.0, kFig1),
        about("fig1", "oracle-decode", "speedup", 1.00, kFig1),
        at("fig1", "oracle-decode", "power", 13.7, kFig1),
        about("fig1", "oracle-select", "speedup", 1.00, kFig1),
        at("fig1", "oracle-select", "power", 8.7, kFig1),

        range("fig3", "A1", "speedup", 0.99, 1.00, kFig3Slow),
        at("fig3", "A1", "energy", 5.2, kFig3),
        range("fig3", "A2", "speedup", 0.99, 1.00, kFig3Slow),
        at("fig3", "A2", "energy", 6.6, kFig3),
        range("fig3", "A3", "speedup", 0.99, 1.00, kFig3Slow),
        at("fig3", "A3", "energy", 9.2, kFig3),
        about("fig3", "A4", "speedup", 0.97, kFig3),
        about("fig3", "A4", "energy", 11.2, kFig3),
        about("fig3", "A5", "speedup", 0.97, kFig3),
        at("fig3", "A5", "energy", 11.7, kFig3Best),
        at("fig3", "A5", "ed", 8.6, kFig3Best),
        at("fig3", "A6", "speedup", 0.88, kFig3),
        about("fig3", "A6", "ed", 0.0, kFig3),
        at("fig3", "PG", "speedup", 0.92, kFig3),
        at("fig3", "PG", "energy", 11.0, kFig3),
        at("fig3", "PG", "ed", 3.5, kFig3),

        at("fig4", "B1", "energy", 7.1, kFig4),
        at("fig4", "B2", "energy", 8.2, kFig4),
        about("fig4", "B3", "speedup", 0.88, kFig4),
        at("fig4", "B3", "ed", -5.0, kFig4),
        at("fig4", "B7", "energy", 11.9, kFig4),
        at("fig4", "B7", "ed", 7.8, kFig4),

        at("fig5", "C2", "speedup", 0.95, kFig5),
        at("fig5", "C2", "energy", 13.5, kFig5),
        at("fig5", "C2", "ed", 8.5, kFig5),
        at("fig5", "C2 go", "energy", 19.2, kFig5Go),
        at("fig5", "PG", "speedup", 0.92, kFig5),
        at("fig5", "PG", "energy", 11.0, kFig5),
        at("fig5", "PG", "ed", 3.5, kFig5),
        about("fig5", "no-select delta", "speedup", 0.98, kFig5NoSelect),
        about("fig5", "no-select delta", "energy", 2.0, kFig5NoSelect),
        about("fig5", "no-select delta", "ed", 0.0, kFig5NoSelect),

        range("fig6", "every depth", "speedup", 0.94, 0.95, kFig6Slow),
        about("fig6", "6", "speedup", 0.95, kFig6),
        at("fig6", "6", "energy", 11.0, kFig6),
        at("fig6", "6", "ed", 5.4, kFig6),
        about("fig6", "14", "speedup", 0.95, kFig6),
        at("fig6", "14", "energy", 13.5, kFig6),
        at("fig6", "14", "ed", 8.5, kFig6),
        about("fig6", "28", "speedup", 0.94, kFig6),
        at("fig6", "28", "energy", 17.2, kFig6),
        at("fig6", "28", "ed", 12.0, kFig6),

        at("fig7", "8", "power", 20.3, kFig7),
        range("fig7", "8", "energy", 11.0, 12.0, kFig7),
        range("fig7", "8", "ed", 4.0, 5.0, kFig7),
        at("fig7", "64", "power", 16.5, kFig7),
        range("fig7", "64", "energy", 11.0, 12.0, kFig7),
        range("fig7", "64", "ed", 4.0, 5.0, kFig7),

        at("table1", "icache", "share", 10.0, kTable1),
        at("table1", "icache", "wasted", 6.4, kTable1),
        at("table1", "bpred", "share", 3.8, kTable1),
        at("table1", "bpred", "wasted", 1.4, kTable1),
        at("table1", "regfile", "share", 1.6, kTable1),
        at("table1", "regfile", "wasted", 0.2, kTable1),
        at("table1", "rename", "share", 1.1, kTable1),
        at("table1", "rename", "wasted", 0.5, kTable1),
        at("table1", "window", "share", 18.2, kTable1),
        at("table1", "window", "wasted", 5.6, kTable1),
        at("table1", "lsq", "share", 1.9, kTable1),
        at("table1", "lsq", "wasted", 0.2, kTable1),
        at("table1", "alu", "share", 8.7, kTable1),
        at("table1", "alu", "wasted", 1.0, kTable1),
        at("table1", "dcache", "share", 10.6, kTable1),
        at("table1", "dcache", "wasted", 1.1, kTable1),
        at("table1", "dcache2", "share", 0.7, kTable1),
        at("table1", "dcache2", "wasted", 0.0, kTable1),
        at("table1", "resultbus", "share", 9.5, kTable1),
        at("table1", "resultbus", "wasted", 1.9, kTable1),
        at("table1", "clock", "share", 33.8, kTable1),
        at("table1", "clock", "wasted", 9.5, kTable1),
        at("table1", "overall", "watts", 56.4, kTable1),
        at("table1", "overall", "wasted", 27.9, kTable1),

        at("conf", "bpru", "spec", 60.0, kConf),
        at("conf", "bpru", "pvn", 45.0, kConf),
        at("conf", "jrs", "spec", 90.0, kConf),
        at("conf", "jrs", "pvn", 24.0, kConf),
    };
    return refs;
}

const Ref *
find(std::string_view artifact, std::string_view row,
     std::string_view metric)
{
    for (const Ref &r : references()) {
        if (r.artifact == artifact && r.row == row && r.metric == metric)
            return &r;
    }
    return nullptr;
}

} // namespace stsim::paper
