/**
 * @file
 * The parallel experiment runner: grid expansion order, JSON spec
 * parsing, result correctness against direct measurement calls, and
 * byte-identical CSV output regardless of worker count.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "platform/platform.hh"
#include "workloads/sweep.hh"
#include "workloads/workloads.hh"
#include "workloads/ycsb.hh"

using namespace skipit;
using workloads::SweepAxis;
using workloads::SweepSpec;
using workloads::SweepPoint;

namespace {

std::string
csvOf(const ReportTable &t)
{
    std::ostringstream os;
    t.renderCsv(os);
    return os.str();
}

/** The message runSweep() throws for @p spec, or "" if it runs. */
std::string
sweepError(const SweepSpec &spec)
{
    try {
        workloads::runSweep(spec, 1);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return {};
}

} // namespace

TEST(SweepGrid, ExpandsCartesianProductLastAxisFastest)
{
    SweepSpec spec;
    spec.axes = {{"threads", {"1", "2"}}, {"bytes", {"64", "128", "256"}}};

    const std::vector<SweepPoint> pts = workloads::expandGrid(spec);
    ASSERT_EQ(pts.size(), 6u);
    EXPECT_EQ(pts[0].params[0].second, "1");
    EXPECT_EQ(pts[0].params[1].second, "64");
    EXPECT_EQ(pts[1].params[1].second, "128");
    EXPECT_EQ(pts[2].params[1].second, "256");
    EXPECT_EQ(pts[3].params[0].second, "2");
    EXPECT_EQ(pts[3].params[1].second, "64");
    EXPECT_EQ(pts[5].params[0].second, "2");
    EXPECT_EQ(pts[5].params[1].second, "256");
    for (std::size_t i = 0; i < pts.size(); ++i)
        EXPECT_EQ(pts[i].index, i);
}

TEST(SweepGrid, EmptyAxesYieldOnePoint)
{
    SweepSpec spec;
    EXPECT_EQ(workloads::expandGrid(spec).size(), 1u);
}

TEST(SweepSpecJson, ParsesKindSeedAndAxesInOrder)
{
    const SweepSpec spec = SweepSpec::fromJsonText(R"({
        "kind": "redundant",
        "seed": 42,
        "axes": { "threads": [1, 8], "bytes": [64], "flush": [true] }
    })");
    EXPECT_EQ(spec.kind, "redundant");
    EXPECT_EQ(spec.seed, 42u);
    ASSERT_EQ(spec.axes.size(), 3u);
    EXPECT_EQ(spec.axes[0].name, "threads");
    EXPECT_EQ(spec.axes[0].values, (std::vector<std::string>{"1", "8"}));
    EXPECT_EQ(spec.axes[1].name, "bytes");
    EXPECT_EQ(spec.axes[2].values, (std::vector<std::string>{"1"}));
}

TEST(SweepSpecJson, ScalarAxisValueBecomesSingletonAxis)
{
    const SweepSpec spec = SweepSpec::fromJsonText(
        R"({"axes": {"bytes": 4096}})");
    ASSERT_EQ(spec.axes.size(), 1u);
    EXPECT_EQ(spec.axes[0].values,
              (std::vector<std::string>{"4096"}));
}

TEST(SweepSpecJson, RejectsMalformedInput)
{
    EXPECT_THROW(SweepSpec::fromJsonText("[]"), std::runtime_error);
    EXPECT_THROW(SweepSpec::fromJsonText("{\"kind\": }"),
                 std::runtime_error);
    EXPECT_THROW(SweepSpec::fromJsonText("{\"bogus\": 1}"),
                 std::runtime_error);
    EXPECT_THROW(SweepSpec::fromJsonText(
                     R"({"axes": {"threads": [[1]]}})"),
                 std::runtime_error);
    EXPECT_THROW(SweepSpec::fromJsonText("{} trailing"),
                 std::runtime_error);
}

// JSON numbers follow RFC 8259: no leading zero, sign only in front,
// digits after a point. A token outside that grammar is an error at its
// offset, not a number read some other way (0200 once ran 128 bytes).
TEST(SweepSpecJson, RejectsNumbersJsonForbids)
{
    for (const std::string bad : {"0200", "-01", "1-2", "+1", "1.", "-"}) {
        const std::string text =
            R"({"kind":"cbo","axes":{"bytes":[)" + bad +
            R"(],"threads":[1]}})";
        try {
            SweepSpec::fromJsonText(text);
            ADD_FAILURE() << bad << " was accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "malformed number '" + bad + "' (at offset 31)"),
                      std::string::npos)
                << bad << ": " << e.what();
        }
    }
    for (const std::string good : {"0", "128", "-0", "1.5", "1e3",
                                   "2E-2", "0.25e+1"}) {
        const SweepSpec spec = SweepSpec::fromJsonText(
            R"({"kind":"cbo","axes":{"bytes":[)" + good + "]}}");
        EXPECT_EQ(spec.axes.at(0).values,
                  (std::vector<std::string>{good}));
    }
}

// Every checked-in spec parses under the strict number grammar.
TEST(SweepSpecJson, EveryCheckedInSpecParses)
{
    std::size_t specs = 0;
    for (const auto &entry : std::filesystem::directory_iterator(
             SKIPIT_SOURCE_DIR "/bench/sweeps")) {
        if (entry.path().extension() != ".json")
            continue;
        std::ifstream in(entry.path());
        std::stringstream text;
        text << in.rdbuf();
        if (entry.path().filename() == "kv.json") {
            EXPECT_NO_THROW(workloads::KvBenchSpec::fromJsonText(text.str()))
                << entry.path();
        } else {
            EXPECT_NO_THROW(SweepSpec::fromJsonText(text.str()))
                << entry.path();
        }
        ++specs;
    }
    EXPECT_GE(specs, 17u);
}

TEST(SweepRun, UnknownAxisOrKindIsRejectedUpfront)
{
    SweepSpec spec;
    spec.kind = "nonsense";
    EXPECT_THROW(workloads::runSweep(spec, 1), std::runtime_error);

    spec.kind = "cbo";
    spec.axes = {{"frobnicate", {"1"}}};
    EXPECT_THROW(workloads::runSweep(spec, 1), std::runtime_error);

    spec.axes = {{"threads", {"banana"}}};
    EXPECT_THROW(workloads::runSweep(spec, 1), std::runtime_error);

    // A repeated axis would label two columns with one name while only
    // the last value reaches the run; the error names the axis.
    spec.axes = {{"threads", {"1"}}, {"threads", {"2"}}, {"bytes", {"64"}}};
    EXPECT_NE(sweepError(spec).find("axis 'threads' is given more than once"),
              std::string::npos);
    const SweepSpec twice = SweepSpec::fromJsonText(
        R"({"kind": "cbo", "axes": {"bytes": [64], "bytes": [128]}})");
    EXPECT_NE(sweepError(twice).find("axis 'bytes' is given more than once"),
              std::string::npos);

    // No kind runs zero threads.
    for (const char *kind : {"cbo", "wwr", "redundant", "throughput",
                             "platform"}) {
        spec.kind = kind;
        spec.axes = {{"threads", {"0"}}};
        EXPECT_THROW(workloads::runSweep(spec, 1), std::runtime_error)
            << kind;
    }

    // update_pct is a finite percentage: nan would act as 0 % and inf
    // as 100 %.
    spec.kind = "throughput";
    for (const char *pct : {"nan", "inf", "-inf", "-5", "100.5", "5abc",
                            " 5", ""}) {
        spec.axes = {{"update_pct", {pct}}};
        EXPECT_THROW(workloads::runSweep(spec, 1), std::runtime_error)
            << "update_pct=" << pct;
    }
    spec.kind = "cbo";

    // Integer axes take no sign and no value too large for their field.
    for (const auto &[axis, value] :
         std::vector<std::pair<std::string, std::string>>{
             {"threads", "-1"},
             {"bytes", "-64"},
             {"threads", "+2"},
             {"threads", " 2"},
             {"threads", "4294967296"},
             {"fshrs", "4294967297"},
             {"dram_latency", "18446744073709551616"}}) {
        spec.axes = {{axis, {value}}};
        EXPECT_THROW(workloads::runSweep(spec, 1), std::runtime_error)
            << axis << "=" << value;
    }

    // A machine value outside the range its component's constructor
    // asserts is an error naming the field, before any run (a run would
    // abort the process).
    for (const auto &[axes, message] :
         std::vector<std::pair<std::vector<SweepAxis>, std::string>>{
             {{{"l2_slices", {"3"}}},
              "l2.slices must be a power of two that divides l2.sets "
              "(1024), got 3"},
             {{{"fshrs", {"0"}}}, "l1.fshrs must be 1..64, got 0"},
             {{{"fshrs", {"65"}}}, "l1.fshrs must be 1..64, got 65"},
             {{{"mshrs", {"0"}}}, "l1.mshrs must be 1..64, got 0"},
             {{{"flush_queue_depth", {"0"}}},
              "l1.flush_queue_depth must be at least 1, got 0"},
             {{{"cores", {"65"}}}, "cores must be 1..64, got 65"},
             {{{"link_latency", {"0"}}},
              "link_latency must be at least 1, got 0"},
             {{{"cores", {"1"}}, {"threads", {"1", "2"}}},
              "run 1 (cores=1, threads=2): threads must be at most cores "
              "(1), got 2"}}) {
        spec.axes = axes;
        EXPECT_NE(sweepError(spec).find(message), std::string::npos)
            << message << "\nactual: " << sweepError(spec);
    }

    // Each L2 policy name has one parser, and so one message.
    spec.axes = {{"l2_policy", {"victim"}}};
    EXPECT_NE(sweepError(spec).find(
                  "l2_policy must be inclusive or exclusive, got 'victim'"),
              std::string::npos);
}

TEST(SweepRun, CboPointMatchesDirectMeasurement)
{
    SweepSpec spec;
    spec.kind = "cbo";
    spec.axes = {{"threads", {"2"}},
                 {"bytes", {"1024"}},
                 {"flush", {"1"}}};

    const ReportTable table = workloads::runSweep(spec, 1);
    ASSERT_EQ(table.rows(), 1u);
    ASSERT_EQ(table.columns(), 4u);

    const Cycle direct = workloads::cboLatency(SoCConfig{}, 2, 1024, true);
    EXPECT_EQ(std::get<std::uint64_t>(table.at(0, 3)), direct);
}

TEST(SweepRun, ParallelRunsRenderByteIdenticalCsv)
{
    SweepSpec spec;
    spec.kind = "cbo";
    spec.axes = {{"threads", {"1", "2"}},
                 {"bytes", {"256", "1024"}},
                 {"flush", {"0", "1"}}};

    const std::string serial = csvOf(workloads::runSweep(spec, 1));
    const std::string j4_a = csvOf(workloads::runSweep(spec, 4));
    const std::string j4_b = csvOf(workloads::runSweep(spec, 4));
    EXPECT_EQ(serial, j4_a);
    EXPECT_EQ(j4_a, j4_b);
    // 8 rows + header.
    EXPECT_EQ(workloads::runSweep(spec, 4).rows(), 8u);
}

TEST(SweepRun, AblationAxesReachTheConfig)
{
    // skipit=0 vs 1 must produce different redundant-writeback latencies
    // (that is the paper's whole point), which proves the axis lands in
    // the SoC configuration.
    SweepSpec spec;
    spec.kind = "redundant";
    spec.axes = {{"skipit", {"0", "1"}},
                 {"threads", {"1"}},
                 {"bytes", {"2048"}},
                 {"flush", {"0"}}};

    const ReportTable table = workloads::runSweep(spec, 2);
    ASSERT_EQ(table.rows(), 2u);
    const auto off = std::get<std::uint64_t>(table.at(0, 4));
    const auto on = std::get<std::uint64_t>(table.at(1, 4));
    EXPECT_LT(on, off);
}

TEST(SweepRun, ThroughputKindProducesPlausibleRows)
{
    SweepSpec spec;
    spec.kind = "throughput";
    spec.axes = {{"ds", {"list"}},
                 {"policy", {"skip-it"}},
                 {"mode", {"automatic"}},
                 {"update_pct", {"5"}},
                 {"threads", {"1"}},
                 {"budget", {"20000"}}};

    const ReportTable table = workloads::runSweep(spec, 1);
    ASSERT_EQ(table.rows(), 1u);
    // Columns: 6 axes + 4 result columns.
    ASSERT_EQ(table.columns(), 10u);
    EXPECT_GT(std::get<double>(table.at(0, 6)), 0.0);
    EXPECT_GT(std::get<std::uint64_t>(table.at(0, 7)), 0u);
}

TEST(SweepRun, PlatformPointMatchesModel)
{
    SweepSpec spec;
    spec.kind = "platform";
    spec.axes = {{"platform", {"intel", "graviton"}},
                 {"instr", {"flush-serial", "clean"}},
                 {"threads", {"8"}},
                 {"bytes", {"32768"}}};

    const ReportTable table = workloads::runSweep(spec, 2);
    ASSERT_EQ(table.rows(), 4u);
    ASSERT_EQ(table.columns(), 5u);
    const PlatformModel intel = platforms::intelXeon6238T();
    const PlatformModel arm = platforms::graviton3();
    const double want[] = {
        intel.latency(32768, 8, WbInstr::FlushSerial),
        intel.latency(32768, 8, WbInstr::Clean),
        arm.latency(32768, 8, WbInstr::FlushSerial),
        arm.latency(32768, 8, WbInstr::Clean),
    };
    for (std::size_t r = 0; r < 4; ++r)
        EXPECT_EQ(std::get<double>(table.at(r, 4)), want[r]) << "row " << r;

    spec.axes = {{"platform", {"amd", "boom"}}};
    EXPECT_THROW(workloads::runSweep(spec, 1), std::runtime_error);
    spec.axes = {{"instr", {"clflush"}}};
    EXPECT_THROW(workloads::runSweep(spec, 1), std::runtime_error);
    spec.axes = {{"flush", {"1"}}};
    EXPECT_THROW(workloads::runSweep(spec, 1), std::runtime_error);
}
