/**
 * @file
 * Unit tests for the tabular result reporting.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "sim/report.hh"

namespace skipit {
namespace {

TEST(ReportTable, TextRenderingAlignsColumns)
{
    ReportTable t("demo", {"name", "value"});
    t.addRow({std::string("a"), std::uint64_t{7}});
    t.addRow({std::string("long-name"), 3.5});
    std::ostringstream os;
    t.renderText(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("=== demo ==="), std::string::npos);
    EXPECT_NE(s.find("long-name"), std::string::npos);
    EXPECT_NE(s.find("3.5"), std::string::npos);
}

TEST(ReportTable, IntegralDoublesRenderWithoutDecimals)
{
    ReportTable t("x", {"v"});
    t.addRow({42.0});
    std::ostringstream os;
    t.renderCsv(os);
    EXPECT_EQ(os.str(), "v\n42\n");
}

TEST(ReportTable, CsvEscapesCommasAndQuotes)
{
    ReportTable t("x", {"a", "b"});
    t.addRow({std::string("hello, world"), std::string("say \"hi\"")});
    std::ostringstream os;
    t.renderCsv(os);
    EXPECT_EQ(os.str(), "a,b\n\"hello, world\",\"say \"\"hi\"\"\"\n");
}

/** Minimal RFC-4180 parser: the inverse of renderCsv's quoting rules. */
std::vector<std::vector<std::string>>
parseCsv(const std::string &text)
{
    std::vector<std::vector<std::string>> rows;
    std::vector<std::string> row;
    std::string field;
    bool quoted = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (quoted) {
            if (c == '"') {
                if (i + 1 < text.size() && text[i + 1] == '"') {
                    field += '"';
                    ++i;
                } else {
                    quoted = false;
                }
            } else {
                field += c;
            }
        } else if (c == '"') {
            quoted = true;
        } else if (c == ',') {
            row.push_back(field);
            field.clear();
        } else if (c == '\n') {
            row.push_back(field);
            field.clear();
            rows.push_back(row);
            row.clear();
        } else {
            field += c;
        }
    }
    return rows;
}

TEST(ReportTable, CsvRoundTripsThroughParser)
{
    // Every awkward cell class: embedded commas, embedded quotes, both,
    // newlines absent (cells are single-line), plain numbers.
    ReportTable t("x", {"name", "note", "n"});
    t.addRow({std::string("a,b"), std::string("say \"hi\""),
              std::uint64_t{1}});
    t.addRow({std::string("\"q\",r"), std::string("plain"),
              std::uint64_t{2}});
    std::ostringstream os;
    t.renderCsv(os);
    const auto rows = parseCsv(os.str());
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0], (std::vector<std::string>{"name", "note", "n"}));
    EXPECT_EQ(rows[1], (std::vector<std::string>{"a,b", "say \"hi\"", "1"}));
    EXPECT_EQ(rows[2], (std::vector<std::string>{"\"q\",r", "plain", "2"}));
}

TEST(ReportTable, CellAccessor)
{
    ReportTable t("x", {"a"});
    t.addRow({std::uint64_t{9}});
    EXPECT_EQ(std::get<std::uint64_t>(t.at(0, 0)), 9u);
    EXPECT_EQ(t.rows(), 1u);
    EXPECT_EQ(t.columns(), 1u);
}

TEST(ReportTableDeathTest, RowWidthMismatchPanics)
{
    ReportTable t("x", {"a", "b"});
    EXPECT_DEATH(t.addRow({std::uint64_t{1}}), "row width");
}

} // namespace
} // namespace skipit
