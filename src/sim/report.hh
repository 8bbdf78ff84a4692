/**
 * @file
 * Tabular result reporting: collect named series (one row per sweep
 * point) and render them as aligned text or CSV. skipit-sweep renders
 * every figure's grid through it.
 */

#ifndef SKIPIT_SIM_REPORT_HH
#define SKIPIT_SIM_REPORT_HH

#include <ostream>
#include <string>
#include <variant>
#include <vector>

namespace skipit {

/** A value in a report cell. */
using ReportValue = std::variant<std::string, double, std::uint64_t>;

/**
 * One table: fixed columns, appended rows. Values render with minimal
 * formatting (doubles to one decimal unless integral).
 */
class ReportTable
{
  public:
    ReportTable(std::string title, std::vector<std::string> columns);

    const std::string &title() const { return title_; }
    std::size_t rows() const { return rows_.size(); }
    std::size_t columns() const { return columns_.size(); }

    /** Append a row; must match the column count. */
    void addRow(std::vector<ReportValue> row);

    /** Aligned human-readable rendering. */
    void renderText(std::ostream &os) const;

    /** RFC-4180-ish CSV (quotes cells containing commas/quotes). */
    void renderCsv(std::ostream &os) const;

    /** Cell accessor for tests. */
    const ReportValue &at(std::size_t row, std::size_t col) const;

  private:
    std::string title_;
    std::vector<std::string> columns_;
    std::vector<std::vector<ReportValue>> rows_;

    static std::string toString(const ReportValue &v);
    static std::string csvEscape(const std::string &s);
};

} // namespace skipit

#endif // SKIPIT_SIM_REPORT_HH
