#include "report.hh"

#include <cmath>
#include <iomanip>
#include <sstream>

#include "logging.hh"

namespace skipit {

ReportTable::ReportTable(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns))
{
    SKIPIT_ASSERT(!columns_.empty(), "report table needs columns");
}

void
ReportTable::addRow(std::vector<ReportValue> row)
{
    SKIPIT_ASSERT(row.size() == columns_.size(),
                  "row width mismatch: got ", row.size(), ", want ",
                  columns_.size());
    rows_.push_back(std::move(row));
}

const ReportValue &
ReportTable::at(std::size_t row, std::size_t col) const
{
    SKIPIT_ASSERT(row < rows_.size() && col < columns_.size(),
                  "report cell out of range");
    return rows_[row][col];
}

std::string
ReportTable::toString(const ReportValue &v)
{
    if (const auto *s = std::get_if<std::string>(&v))
        return *s;
    if (const auto *u = std::get_if<std::uint64_t>(&v))
        return std::to_string(*u);
    const double d = std::get<double>(v);
    std::ostringstream os;
    if (std::abs(d - std::round(d)) < 1e-9) {
        os << static_cast<long long>(std::llround(d));
    } else {
        os << std::fixed << std::setprecision(1) << d;
    }
    return os.str();
}

void
ReportTable::renderText(std::ostream &os) const
{
    // Column widths: max of header and cells, padded.
    std::vector<std::size_t> width(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c)
        width[c] = columns_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], toString(row[c]).size());
    }

    os << "=== " << title_ << " ===\n";
    for (std::size_t c = 0; c < columns_.size(); ++c)
        os << std::setw(static_cast<int>(width[c]) + 2) << columns_[c];
    os << "\n";
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << std::setw(static_cast<int>(width[c]) + 2)
               << toString(row[c]);
        }
        os << "\n";
    }
}

std::string
ReportTable::csvEscape(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (const char ch : s) {
        if (ch == '"')
            out += "\"\"";
        else
            out += ch;
    }
    out += "\"";
    return out;
}

void
ReportTable::renderCsv(std::ostream &os) const
{
    for (std::size_t c = 0; c < columns_.size(); ++c)
        os << (c != 0 ? "," : "") << csvEscape(columns_[c]);
    os << "\n";
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            os << (c != 0 ? "," : "") << csvEscape(toString(row[c]));
        os << "\n";
    }
}

} // namespace skipit
