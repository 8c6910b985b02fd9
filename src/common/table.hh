/**
 * @file
 * ASCII table formatter used by the suite reports and examples to print
 * paper-style tables (rows = benchmarks/experiments, columns = metrics).
 */

#ifndef STSIM_COMMON_TABLE_HH
#define STSIM_COMMON_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace stsim
{

/** Column-aligned text table with a header row and optional title. */
class TextTable
{
  public:
    /** @param header Column titles, defining the column count. */
    explicit TextTable(std::vector<std::string> header);

    /** Optional title printed above the table. */
    void setTitle(std::string title) { title_ = std::move(title); }

    /** Append a row; must match the header's column count. */
    void addRow(std::vector<std::string> cells);

    /** Append a horizontal separator row. */
    void addSeparator();

    /** Format a double with @p digits decimals. */
    static std::string num(double v, int digits = 2);

    /** Format a percentage ("12.3%") with @p digits decimals. */
    static std::string pct(double v, int digits = 1);

    /** Render the table. */
    void print(std::ostream &os) const;

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_; // empty row = separator
};

} // namespace stsim

#endif // STSIM_COMMON_TABLE_HH
