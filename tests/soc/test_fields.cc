/**
 * @file
 * The machine-field table (SoCConfig::set, changedFields, fieldNames),
 * walked through every front end that reads it: the sweep's machine
 * axes, the KV spec and the config block its report echoes, and the
 * fuzz replay bundle.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "soc/soc.hh"
#include "workloads/fuzz.hh"
#include "workloads/sweep.hh"
#include "workloads/ycsb.hh"

namespace skipit {
namespace {

using Fields = std::vector<std::pair<std::string, std::string>>;

/** One non-default token per table field, in table order. */
const Fields non_default = {
    {"skipit", "0"},          {"coalesce", "0"},
    {"cross_kind_coalesce", "1"}, {"wide_data_array", "0"},
    {"fshrs", "2"},           {"flush_queue_depth", "4"},
    {"mshrs", "2"},           {"llc_skip", "0"},
    {"l2_slices", "2"},       {"l2_policy", "exclusive"},
    {"l2_index", "hashed"},   {"l2_replace", "random"},
    {"grant_data_dirty", "0"}, {"dram_latency", "90"},
    {"link_latency", "4"},    {"fast_forward", "0"},
};

/** The fields the table names, read straight from @p c. */
std::string
tableFieldsOf(const SoCConfig &c)
{
    std::ostringstream os;
    os << c.l1.skip_it << c.l1.coalesce << c.l1.cross_kind_coalesce
       << c.l1.wide_data_array << " " << c.l1.fshrs << " "
       << c.l1.flush_queue_depth << " " << c.l1.mshrs << " "
       << c.l2.llc_skip << " " << c.l2.slices << " "
       << toString(c.l2.policy) << " " << toString(c.l2.index) << " "
       << toString(c.l2.replace) << " " << c.l2.grant_data_dirty << " "
       << c.dram.latency << " " << c.link_latency << " "
       << c.fast_forward;
    return os.str();
}

/** @p c's changedFields() applied to a default config. */
SoCConfig
rebuilt(const SoCConfig &c)
{
    SoCConfig r;
    for (const auto &[name, token] : c.changedFields())
        EXPECT_TRUE(r.set(name, token)) << name;
    return r;
}

std::string
kvSpecOf(const workloads::KvSpec &s)
{
    std::ostringstream os;
    os << s.mix << " " << s.keys << " " << s.ops << " " << s.cores << " "
       << s.slices << " " << s.skipit << " " << s.distribution << " "
       << s.theta << " " << s.value_bytes << " " << s.arrival_period
       << " " << s.scan_len << " " << s.checkpoint_every << " " << s.seed
       << " | " << tableFieldsOf(s.machine);
    return os.str();
}

std::string
fuzzSpecOf(const workloads::FuzzSpec &s)
{
    std::ostringstream os;
    os << s.machine.cores << " " << s.ops << " " << s.lines << " "
       << s.pool_base << " " << s.jitter << " " << s.max_delay << " "
       << s.max_cycles << " " << s.break_probe_invalidate << " "
       << s.crash_points << " " << s.crash_at << " | "
       << tableFieldsOf(s.machine);
    return os.str();
}

/** @p token as a JSON value: a number bare, anything else quoted. */
std::string
jsonValue(const std::string &token)
{
    return token.find_first_not_of("0123456789") == std::string::npos
               ? token
               : "\"" + token + "\"";
}

/** The "config" object writeKvBenchJson() prints for @p spec. */
std::string
kvConfigBlock(const workloads::KvBenchSpec &spec)
{
    workloads::KvBenchResult result;
    result.spec = spec;
    std::ostringstream os;
    workloads::writeKvBenchJson(result, os);
    const std::string doc = os.str();
    const std::size_t from = doc.find("\"config\": ") + 10;
    return doc.substr(from, doc.find("\n  }", from) + 4 - from);
}

template <typename F>
std::string
errorOf(F f)
{
    try {
        f();
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return {};
}

TEST(MachineFields, EveryFieldRoundTripsThroughEachFrontEnd)
{
    std::vector<std::string> names;
    for (const auto &[name, token] : non_default)
        names.push_back(name);
    EXPECT_EQ(names, SoCConfig::fieldNames())
        << "a field without a row here, or a row without a field";

    const std::string dir =
        ::testing::TempDir() + "/skipit_fields_bundle";
    for (const auto &[name, token] : non_default) {
        SCOPED_TRACE(name + "=" + token);

        // set(), then changedFields() onto a default config.
        SoCConfig c;
        ASSERT_TRUE(c.set(name, token));
        EXPECT_NE(tableFieldsOf(c), tableFieldsOf(SoCConfig{}));
        EXPECT_EQ(c.changedFields(), (Fields{{name, token}}));
        EXPECT_EQ(tableFieldsOf(rebuilt(c)), tableFieldsOf(c));

        // A one-point sweep takes the field as an axis and echoes it.
        workloads::SweepSpec sweep;
        sweep.kind = "cbo";
        sweep.axes = {{"threads", {"1"}}, {"bytes", {"64"}},
                      {name, {token}}};
        const ReportTable table = workloads::runSweep(sweep, 1);
        ASSERT_EQ(table.rows(), 1u);
        EXPECT_EQ(std::get<std::string>(table.at(0, 2)), token);

        // The KV spec takes it as a top-level key, but for the three
        // the grid sets itself.
        const std::string kv_text =
            "{\"" + name + "\": " + jsonValue(token) + "}";
        if (name == "l2_slices" || name == "skipit" ||
            name == "grant_data_dirty") {
            EXPECT_THROW(workloads::KvBenchSpec::fromJsonText(kv_text),
                         std::runtime_error);
        } else {
            const workloads::KvBenchSpec kv =
                workloads::KvBenchSpec::fromJsonText(kv_text);
            SoCConfig want = workloads::kvMachineConfig({});
            want.set(name, token);
            EXPECT_EQ(tableFieldsOf(workloads::kvMachineConfig(kv.base)),
                      tableFieldsOf(want));
            const std::string block = kvConfigBlock(kv);
            EXPECT_NE(block.find("\"" + name + "\": " + jsonValue(token)),
                      std::string::npos)
                << block;
            EXPECT_EQ(kvSpecOf(workloads::KvBenchSpec::fromJsonText(block)
                                   .base),
                      kvSpecOf(kv.base))
                << block;
        }

        // A replay bundle writes and reads it back.
        workloads::FuzzSpec fuzz;
        fuzz.ops = 8;
        fuzz.lines = 4;
        fuzz.max_cycles = 200'000;
        ASSERT_TRUE(fuzz.machine.set(name, token));
        workloads::FuzzFailure failure;
        failure.seed = 3;
        failure.kind = "value";
        failure.programs = workloads::generateFuzzPrograms(fuzz, 3);
        std::filesystem::remove_all(dir);
        ASSERT_TRUE(workloads::writeReplayBundle(fuzz, failure, dir));
        std::vector<Program> programs;
        const auto [back, seed] = workloads::readReplayBundle(dir, programs);
        EXPECT_EQ(seed, 3u);
        EXPECT_EQ(fuzzSpecOf(back), fuzzSpecOf(fuzz));
    }
    std::filesystem::remove_all(dir);

    // The composite skipit sets both halves; changedFields() lists
    // whatever the other half needs to come back.
    for (const auto &[skip, dirty] :
         {std::pair{false, true}, std::pair{true, false}}) {
        SoCConfig c;
        c.l1.skip_it = skip;
        c.l2.grant_data_dirty = dirty;
        EXPECT_EQ(tableFieldsOf(rebuilt(c)), tableFieldsOf(c))
            << "skip " << skip << ", grant-data-dirty " << dirty;
    }
    SoCConfig both;
    both.set("skipit", "0");
    EXPECT_FALSE(both.l1.skip_it || both.l2.grant_data_dirty);
    EXPECT_EQ(both.changedFields(), (Fields{{"skipit", "0"}}));
}

TEST(MachineFields, UnknownNamesAndBadTokensReadTheSameEverywhere)
{
    const auto sweepError = [](const std::string &name,
                               const std::string &token) {
        workloads::SweepSpec spec;
        spec.axes = {{name, {token}}};
        return errorOf([&] { workloads::runSweep(spec, 1); });
    };
    const auto kvError = [](const std::string &name,
                            const std::string &token) {
        return errorOf([&] {
            workloads::KvBenchSpec::fromJsonText(
                "{\"" + name + "\": \"" + token + "\"}");
        });
    };

    SoCConfig c;
    EXPECT_FALSE(c.set("frobs", "1"));
    const std::string unknown = SoCConfig::unknownField("frobs");
    EXPECT_NE(unknown.find("'frobs'"), std::string::npos);
    EXPECT_NE(sweepError("frobs", "1").find(unknown), std::string::npos);
    EXPECT_NE(kvError("frobs", "1").find(unknown), std::string::npos);

    for (const auto &[name, token] :
         Fields{{"fshrs", "4294967297"}, {"fshrs", "1x"},
                {"llc_skip", "2"}, {"l2_policy", "victim"},
                {"dram_latency", "-1"}}) {
        const std::string bad =
            errorOf([&] { SoCConfig{}.set(name, token); });
        EXPECT_NE(bad.find(name), std::string::npos) << bad;
        EXPECT_NE(bad.find("'" + token + "'"), std::string::npos) << bad;
        EXPECT_NE(sweepError(name, token).find(bad), std::string::npos)
            << name << "=" << token;
        EXPECT_NE(kvError(name, token).find(bad), std::string::npos)
            << name << "=" << token;
    }
}

// The L1 indexes its sets by mask, so check() refuses a set count that
// is not a power of two (0 included) before a machine is built, and the
// arrays' constructor asserts the same.
TEST(MachineCheck, L1SetsMustBeAPowerOfTwo)
{
    for (const unsigned sets : {3u, 0u, 96u}) {
        SoCConfig c;
        c.l1.sets = sets;
        EXPECT_EQ(c.check(), "l1.sets must be a power of two, got " +
                                 std::to_string(sets));
    }
    for (const unsigned sets : {1u, 8u, 64u, 1024u}) {
        SoCConfig c;
        c.l1.sets = sets;
        EXPECT_EQ(c.check(), "") << sets;
    }
}

TEST(MachineCheckDeathTest, L1ArraysRefuseASetCountThatIsNotAPowerOfTwo)
{
    for (const unsigned sets : {3u, 0u}) {
        EXPECT_DEATH(L1Arrays(sets, 8),
                     "L1 set count must be a power of two, got " +
                         std::to_string(sets))
            << sets;
    }
}

} // namespace
} // namespace skipit
