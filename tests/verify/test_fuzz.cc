/**
 * @file
 * The seeded fuzz harness: deterministic replay, failure detection via
 * the injected fault, shrinking, and replay-bundle round-trips.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "workloads/fuzz.hh"

namespace skipit {
namespace {

using workloads::FuzzFailure;
using workloads::FuzzSpec;

/** Small and fast, but still aliasing-prone. */
FuzzSpec
smallSpec()
{
    FuzzSpec spec;
    spec.machine.cores = 2;
    spec.ops = 60;
    spec.lines = 4;
    spec.max_cycles = 500'000;
    return spec;
}

/** The injected probe fault plus the geometry that exposes it: a single
 *  FSHR keeps flush-queue entries queued long enough to be probed. */
FuzzSpec
faultySpec()
{
    FuzzSpec spec = smallSpec();
    spec.machine.l1.fshrs = 1;
    spec.machine.l1.flush_queue_depth = 8;
    spec.break_probe_invalidate = true;
    return spec;
}

/** A seed that trips the injected fault (verified by the test). */
std::uint64_t
faultySeed()
{
    auto f = workloads::runFuzz(faultySpec(), 0, 50, 1);
    EXPECT_TRUE(f.has_value()) << "injected fault never fired";
    return f ? f->seed : 0;
}

TEST(Fuzz, GenerationIsDeterministic)
{
    const FuzzSpec spec = smallSpec();
    const auto a = workloads::generateFuzzPrograms(spec, 42);
    const auto b = workloads::generateFuzzPrograms(spec, 42);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t h = 0; h < a.size(); ++h) {
        ASSERT_EQ(a[h].size(), b[h].size());
        for (std::size_t i = 0; i < a[h].size(); ++i) {
            EXPECT_EQ(static_cast<int>(a[h][i].kind),
                      static_cast<int>(b[h][i].kind));
            EXPECT_EQ(a[h][i].addr, b[h][i].addr);
            EXPECT_EQ(a[h][i].data, b[h][i].data);
        }
    }
    // Different seeds draw different programs.
    const auto c = workloads::generateFuzzPrograms(spec, 43);
    bool differs = false;
    for (std::size_t i = 0; i < std::min(a[0].size(), c[0].size()); ++i)
        differs = differs || a[0][i].addr != c[0][i].addr ||
                  a[0][i].data != c[0][i].data;
    EXPECT_TRUE(differs);
}

TEST(Fuzz, CleanSeedsStayCleanUnderJitter)
{
    // Function must be schedule-invariant: jittered runs of the honest
    // protocol pass every invariant and every value check.
    EXPECT_FALSE(workloads::runFuzz(smallSpec(), 0, 25, 2).has_value());
}

TEST(Fuzz, CleanSeedsStayCleanAtTwoSlicesUnderJitter)
{
    // Same property with an interleaved L2: the slice-routing and global
    // flush-counter invariants run too.
    FuzzSpec spec = smallSpec();
    spec.machine.l2.slices = 2;
    EXPECT_FALSE(workloads::runFuzz(spec, 0, 25, 2).has_value());
}

TEST(Fuzz, CleanSeedsStayCleanAtFourSlicesUnderJitter)
{
    FuzzSpec spec = smallSpec();
    spec.machine.l2.slices = 4;
    spec.lines = 8; // cover every slice
    EXPECT_FALSE(workloads::runFuzz(spec, 0, 25, 2).has_value());
}

TEST(WakeAudit, JitteredFuzzSeed)
{
    // Jittered arrivals and backpressure bursts on every channel of
    // links routed into two slices.
    FuzzSpec spec = smallSpec();
    spec.machine.l2.slices = 2;
    SoC soc(workloads::fuzzConfig(spec, 7));
    soc.setPrograms(workloads::generateFuzzPrograms(spec, 7));
    soc.sim().auditWakes();
    // The elapsed and skipped cycles are pinned: a change in which
    // cycles execute fails here even when the audit stays clean.
    EXPECT_EQ(soc.runToQuiescence(spec.max_cycles), 2158u);
    EXPECT_EQ(soc.sim().skippedCycles(), 416u);
    EXPECT_TRUE(soc.checker().clean());
    EXPECT_EQ(soc.sim().wakeAudit(), "");
}

TEST(Fuzz, InjectedFaultIsCaughtAndReplaysDeterministically)
{
    const FuzzSpec spec = faultySpec();
    const std::uint64_t seed = faultySeed();
    const auto a = workloads::runFuzzSeed(spec, seed);
    const auto b = workloads::runFuzzSeed(spec, seed);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a->kind, "invariant");
    EXPECT_NE(a->detail.find("probe-invalidate"), std::string::npos)
        << a->detail;
    // Same seed, same run: identical failure, bit for bit.
    EXPECT_EQ(a->kind, b->kind);
    EXPECT_EQ(a->cycle, b->cycle);
    EXPECT_EQ(a->detail, b->detail);
}

TEST(Fuzz, InjectedFaultIsPinnedAtOneAndTwoSlices)
{
    // The first failing seed, its cycle and its detail, through a
    // monolithic L2 and through links routed into two slices (where
    // the slice-routing checks run too).
    std::ostringstream got;
    for (const unsigned slices : {1u, 2u}) {
        FuzzSpec spec = faultySpec();
        spec.machine.l2.slices = slices;
        const auto f = workloads::runFuzz(spec, 0, 50, 1);
        ASSERT_TRUE(f.has_value()) << slices << " slice(s)";
        got << slices << " slice(s): seed " << f->seed << " cycle "
            << f->cycle << " " << f->kind << ": " << f->detail << "\n";
    }
    const std::string detail =
        " cycle 803 invariant: invariant 'probe-invalidate' violated: "
        "l1[1] toN probe on 0x90080 passed invalidate-queue but a queued "
        "entry still claims a hit\n";
    EXPECT_EQ(got.str(), "1 slice(s): seed 0" + detail +
                             "2 slice(s): seed 0" + detail);
}

TEST(Fuzz, ShrinkKeepsFailureAndNeverGrows)
{
    const FuzzSpec spec = faultySpec();
    const auto f = workloads::runFuzzSeed(spec, faultySeed());
    ASSERT_TRUE(f.has_value());
    const auto size = [](const FuzzFailure &x) {
        std::size_t n = 0;
        for (const Program &p : x.programs)
            n += p.size();
        return n;
    };
    const FuzzFailure shrunk = workloads::shrinkFuzzFailure(spec, *f);
    EXPECT_LE(size(shrunk), size(*f));
    // The shrunk variant must still reproduce.
    const auto again =
        workloads::runFuzzPrograms(spec, shrunk.seed, shrunk.programs);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->kind, shrunk.kind);
    EXPECT_EQ(again->cycle, shrunk.cycle);
}

TEST(Fuzz, ReplayBundleRoundTrips)
{
    const FuzzSpec spec = faultySpec();
    const auto f = workloads::runFuzzSeed(spec, faultySeed());
    ASSERT_TRUE(f.has_value());

    const std::string dir =
        ::testing::TempDir() + "/skipit_fuzz_bundle";
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(workloads::writeReplayBundle(spec, *f, dir));
    for (const char *file :
         {"config.txt", "core0.s", "core1.s", "failure.txt",
          "trace.json", "txn_history.txt"}) {
        EXPECT_TRUE(std::filesystem::exists(dir + "/" + file)) << file;
    }

    std::vector<Program> programs;
    const auto [rspec, rseed] =
        workloads::readReplayBundle(dir, programs);
    EXPECT_EQ(rseed, f->seed);
    EXPECT_EQ(rspec.machine.cores, spec.machine.cores);
    EXPECT_EQ(rspec.machine.changedFields(), spec.machine.changedFields());
    EXPECT_EQ(rspec.machine.l1.fshrs, spec.machine.l1.fshrs);
    EXPECT_TRUE(rspec.break_probe_invalidate);

    const auto replayed =
        workloads::runFuzzPrograms(rspec, rseed, programs);
    ASSERT_TRUE(replayed.has_value());
    EXPECT_EQ(replayed->kind, f->kind);
    EXPECT_EQ(replayed->cycle, f->cycle);
    EXPECT_EQ(replayed->detail, f->detail);
    std::filesystem::remove_all(dir);
}

TEST(Fuzz, ReplayBundleRefusesTruncatedAndJunkValues)
{
    const FuzzSpec spec = faultySpec();
    FuzzFailure failure;
    failure.kind = "invariant";
    failure.programs = workloads::generateFuzzPrograms(spec, 0);
    const std::string dir = ::testing::TempDir() + "/skipit_fuzz_junk";
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(workloads::writeReplayBundle(spec, failure, dir));
    const auto slurp = [&](const std::string &name) {
        std::ifstream in(dir + "/" + name);
        std::stringstream ss;
        ss << in.rdbuf();
        return ss.str();
    };
    const auto put = [&](const std::string &name, const std::string &text) {
        std::ofstream(dir + "/" + name) << text;
    };
    const std::string config = slurp("config.txt");
    const std::string core0 = slurp("core0.s");
    const auto error = [&] {
        std::vector<Program> programs;
        try {
            workloads::readReplayBundle(dir, programs);
        } catch (const std::runtime_error &e) {
            return std::string(e.what());
        }
        return std::string();
    };
    ASSERT_EQ(error(), "");
    ASSERT_NE(config.find("\nfshrs 1\n"), std::string::npos) << config;

    // Each row: config.txt with its key's line replaced (or added), and
    // the message it must draw.
    for (const auto &[line, message] :
         std::vector<std::pair<std::string, std::string>>{
             {"fshrs 4294967297",
              "fshrs must be an unsigned integer that fits the field, got "
              "'4294967297'"},
             {"fshrs -4294967295", "fshrs must be an unsigned integer"},
             {"fshrs 1 junk", "malformed line 'fshrs 1 junk'"},
             {"l2_slices 4294967297", "l2_slices must be an unsigned"},
             {"max_delay 4294967308", "max_delay must be an unsigned"},
             {"jitter 1x", "jitter must be 0 or 1, got '1x'"},
             {"break_probe_invalidate 2", "must be 0 or 1, got '2'"},
             {"harts 0x", "harts must be an unsigned"},
             {"fshrs 0", "l1.fshrs must be 1..64, got 0"},
             {"flush_queue_depth 0",
              "l1.flush_queue_depth must be at least 1, got 0"},
             {"frobs 1", "unknown key 'frobs'"}}) {
        const std::string key = line.substr(0, line.find(' '));
        std::string text = config;
        const std::size_t at = text.find("\n" + key + " ");
        if (at == std::string::npos) {
            text += line + "\n";
        } else {
            text.replace(at + 1, text.find('\n', at + 1) - at - 1, line);
        }
        put("config.txt", text);
        EXPECT_EQ(error().rfind("fuzz bundle " + dir + ": ", 0), 0u)
            << line;
        EXPECT_NE(error().find(message), std::string::npos)
            << line << "\nactual: " << error();
    }
    put("config.txt", config + "seed 5\n");
    EXPECT_NE(error().find("key 'seed' is given more than once"),
              std::string::npos)
        << error();

    // A program the assembler rejects is a bad bundle, named by file.
    put("config.txt", config);
    put("core0.s", core0 + "frobnicate 0x10\n");
    EXPECT_EQ(error().rfind("fuzz bundle " + dir +
                                ": core0.s: unknown mnemonic 'frobnicate'",
                            0),
              0u)
        << error();
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace skipit
