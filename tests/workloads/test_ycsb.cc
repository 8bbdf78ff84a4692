/**
 * @file
 * Served-KV benchmark tests: statistical validation of the zipfian
 * generator (chi-square goodness of fit, stream determinism), the
 * durable KV store's trace and commit discipline, open-loop latency
 * semantics, the skip-bit on/off delta, byte-determinism of the whole
 * pipeline, and the crash-recovery audit (positive and negative).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <unordered_map>

#include "kv/store.hh"
#include "soc/soc.hh"
#include "workloads/json.hh"
#include "workloads/ycsb.hh"

namespace skipit::workloads {
namespace {

// ---------------------------------------------------------------------
// Zipfian generator

TEST(Zipfian, ProbabilitiesSumToOne)
{
    const ZipfianGen zipf(100, 0.99);
    double sum = 0.0;
    for (std::uint64_t r = 0; r < 100; ++r)
        sum += zipf.probability(r);
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipfian, ProbabilitiesDecreaseWithRank)
{
    const ZipfianGen zipf(50, 0.8);
    for (std::uint64_t r = 1; r < 50; ++r)
        EXPECT_LT(zipf.probability(r), zipf.probability(r - 1));
}

/**
 * Chi-square goodness of fit of the sampled ranks against the exact
 * zipfian pmf. With k = 20 categories (df = 19), the 99.9th percentile
 * of the chi-square distribution is 43.8; the bound of 60 keeps the
 * test immune to ordinary statistical noise while still catching a
 * broken sampler (a uniform sampler scores in the thousands here).
 */
void
chiSquareCheck(double theta)
{
    constexpr std::uint64_t n = 20;
    constexpr std::uint64_t draws = 200'000;
    const ZipfianGen zipf(n, theta);
    Rng rng(42);
    std::vector<std::uint64_t> observed(n, 0);
    for (std::uint64_t i = 0; i < draws; ++i) {
        const std::uint64_t r = zipf.sample(rng);
        ASSERT_LT(r, n);
        ++observed[r];
    }
    double chi2 = 0.0;
    for (std::uint64_t r = 0; r < n; ++r) {
        const double expected =
            static_cast<double>(draws) * zipf.probability(r);
        ASSERT_GT(expected, 5.0) << "chi-square preconditions violated";
        const double d = static_cast<double>(observed[r]) - expected;
        chi2 += d * d / expected;
    }
    EXPECT_LT(chi2, 60.0) << "chi-square " << chi2 << " at theta "
                          << theta << ": sampler does not match the pmf";
}

TEST(Zipfian, ChiSquareGoodnessOfFitHighSkew)
{
    chiSquareCheck(0.99);
}

TEST(Zipfian, ChiSquareGoodnessOfFitModerateSkew)
{
    chiSquareCheck(0.6);
}

TEST(Zipfian, StreamIsSeedDeterministic)
{
    const ZipfianGen zipf(1000, 0.99);
    Rng a(7), b(7), c(8);
    bool all_same_c = true;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t va = zipf.sample(a);
        ASSERT_EQ(va, zipf.sample(b)) << "stream diverged at " << i;
        all_same_c = all_same_c && va == zipf.sample(c);
    }
    EXPECT_FALSE(all_same_c) << "different seeds produced one stream";
}

// ---------------------------------------------------------------------
// The durable KV store's trace and commit discipline

std::size_t
countKind(const Program &p, MemOpKind k)
{
    std::size_t n = 0;
    for (const MemOp &op : p)
        n += op.kind == k ? 1 : 0;
    return n;
}

TEST(KvStore, PrefillBuildsTheMirrorAndImage)
{
    kv::KvStore store({0, 64});
    store.prefill(50);
    EXPECT_EQ(store.keyCount(), 50u);
    EXPECT_FALSE(store.image().empty());
    for (std::uint64_t k = 1; k <= 50; ++k) {
        EXPECT_EQ(store.version(k), 0u);
        const Addr rec = store.valueAddr(k);
        ASSERT_NE(rec, 0u);
        // The record on "NVM" carries its key, version, and payload.
        EXPECT_EQ(store.imageWord(rec), k);
        EXPECT_EQ(store.imageWord(rec + 8), 0u);
        EXPECT_EQ(store.imageWord(rec + 16),
                  kv::KvStore::valueWord(k, 0, 0));
    }
}

TEST(KvStore, UpdateAppendsAndCommitsInTwoEpochs)
{
    kv::KvStore store({0, 64});
    store.prefill(10);
    const Addr old_rec = store.valueAddr(3);
    Program p;
    store.emitUpdate(p, 3);
    EXPECT_EQ(store.version(3), 1u);
    EXPECT_NE(store.valueAddr(3), old_rec);
    // Value epoch + publish epoch.
    EXPECT_EQ(countKind(p, MemOpKind::Fence), 2u);
    EXPECT_GE(countKind(p, MemOpKind::CboClean), 4u);
    // The publish store must come after the value epoch's fence: the
    // index may never point at bytes that are not yet durable.
    std::size_t first_fence = p.size(), publish = p.size();
    for (std::size_t i = 0; i < p.size(); ++i) {
        if (p[i].kind == MemOpKind::Fence && first_fence == p.size())
            first_fence = i;
        if (p[i].kind == MemOpKind::Store &&
            p[i].data == store.valueAddr(3))
            publish = i;
    }
    ASSERT_LT(first_fence, p.size());
    ASSERT_LT(publish, p.size());
    EXPECT_GT(publish, first_fence);
}

TEST(KvStore, InsertCommitsInThreeEpochs)
{
    kv::KvStore store({0, 64});
    store.prefill(10);
    Program p;
    const std::uint64_t key = store.emitInsert(p);
    EXPECT_EQ(key, 11u);
    EXPECT_EQ(store.keyCount(), 11u);
    // Value epoch, node-init epoch, publish epoch.
    EXPECT_EQ(countKind(p, MemOpKind::Fence), 3u);
}

TEST(KvStore, GetLoadsTheCurrentRecord)
{
    kv::KvStore store({0, 64});
    store.prefill(10);
    Program p;
    store.emitGet(p, 7);
    EXPECT_EQ(countKind(p, MemOpKind::Store), 0u);
    EXPECT_EQ(countKind(p, MemOpKind::CboClean), 0u);
    const Addr rec = store.valueAddr(7);
    bool touched = false;
    for (const MemOp &op : p)
        touched = touched || (op.kind == MemOpKind::Load &&
                              op.addr >= rec && op.addr < rec + 80);
    EXPECT_TRUE(touched) << "get never loaded the value record";
}

TEST(KvStore, CheckpointReflushesDirtiedLinesOnce)
{
    kv::KvStore store({0, 64});
    store.prefill(10);
    Program commit;
    store.emitUpdate(commit, 5);
    const std::size_t commit_cleans =
        countKind(commit, MemOpKind::CboClean);

    Program ckpt;
    store.emitCheckpoint(ckpt);
    // Conservative: every line the update dirtied is re-cleaned (the
    // redundant traffic the skip bit eats), then fenced.
    EXPECT_GE(countKind(ckpt, MemOpKind::CboClean), commit_cleans - 1);
    EXPECT_EQ(countKind(ckpt, MemOpKind::Fence), 1u);

    Program again;
    store.emitCheckpoint(again);
    EXPECT_TRUE(again.empty()) << "checkpoint did not clear its log";
}

TEST(KvStore, StoresOnDistinctHartsAreDisjoint)
{
    kv::KvStore a({0, 64}), b({1, 64});
    a.prefill(5);
    b.prefill(5);
    for (const auto &[addr, line] : a.image())
        EXPECT_EQ(b.image().count(addr), 0u)
            << "hart regions overlap at 0x" << std::hex << addr;
}

// ---------------------------------------------------------------------
// The served pipeline

KvSpec
tinySpec()
{
    KvSpec s;
    s.mix = "A";
    s.keys = 32;
    s.ops = 40;
    s.cores = 2;
    s.seed = 3;
    return s;
}

TEST(KvRun, SkipBitDropsRedundantCleansAndNeverHurts)
{
    KvSpec s = tinySpec();
    s.ops = 80;
    const KvRunResult on = runKv(s);
    s.skipit = false;
    const KvRunResult off = runKv(s);
    EXPECT_GT(on.skip_drops, 0u)
        << "the conservative commit path produced no redundant cleans";
    EXPECT_EQ(off.skip_drops, 0u);
    // Dropped cleans are cleans the off-configuration must execute.
    EXPECT_GT(off.cbo_cleans, on.cbo_cleans);
    EXPECT_LE(on.cycles, off.cycles);
}

TEST(KvRun, OpenLoopLatencyIncludesQueueingDelay)
{
    KvSpec s = tinySpec();
    s.cores = 1;
    const KvRunResult closed = runKv(s);
    const double service_p50 = closed.latency.percentile(50);

    // Far above the service rate: each op queues behind the backlog,
    // and latency-from-arrival must blow past the service time.
    s.arrival_period = 20;
    const KvRunResult overloaded = runKv(s);
    EXPECT_GT(overloaded.latency.percentile(50), 4 * service_p50);

    // Far below the service rate: the queue is empty at every arrival,
    // so latency collapses back to the service time.
    s.arrival_period = 100'000;
    const KvRunResult idle = runKv(s);
    EXPECT_NEAR(idle.latency.percentile(50), service_p50,
                service_p50 * 0.5 + 8.0);
    EXPECT_GT(idle.cycles, closed.cycles) << "pacing did not stretch "
                                             "the run";
}

TEST(KvRun, EveryMixServes)
{
    for (const std::string mix : {"A", "B", "C", "D", "E"}) {
        KvSpec s = tinySpec();
        s.mix = mix;
        const KvRunResult r = runKv(s);
        EXPECT_EQ(r.total_ops, s.ops * s.cores) << "mix " << mix;
        EXPECT_EQ(r.latency.count(), s.ops * s.cores);
        EXPECT_FALSE(r.by_op.empty());
    }
}

TEST(KvRun, RejectsInvalidSpecs)
{
    KvSpec s = tinySpec();
    s.mix = "Z";
    EXPECT_THROW(runKv(s), std::runtime_error);
    s = tinySpec();
    s.theta = 1.5;
    EXPECT_THROW(runKv(s), std::runtime_error);
    s = tinySpec();
    s.distribution = "gaussian";
    EXPECT_THROW(runKv(s), std::runtime_error);
    // Machine values the SoC's components would assert on.
    s = tinySpec();
    s.slices = 3;
    EXPECT_THROW(runKv(s), std::runtime_error);
    s = tinySpec();
    s.cores = 65;
    EXPECT_THROW(runKv(s), std::runtime_error);
}

// ---------------------------------------------------------------------
// Crash durability

TEST(KvCrash, MidRunPowerFailureLeavesARecoverableStore)
{
    KvSpec s = tinySpec();
    s.ops = 120;
    s.mix = "D"; // inserts exercise the node-init epoch too
    s.crash_at = 6000;
    const KvRunResult r = runKv(s);
    EXPECT_TRUE(r.crashed);
    EXPECT_EQ(r.oracle_violations, 0u);
    EXPECT_TRUE(r.recovery_violations.empty())
        << r.recovery_violations.front();
    EXPECT_TRUE(r.durable());
}

TEST(KvCrash, RecoveryWalkAcceptsAConsistentImage)
{
    KvSpec s = tinySpec();
    kv::KvStore store({0, 64});
    store.prefill(20);
    std::unordered_map<Addr, LineData> image(store.image().begin(),
                                             store.image().end());
    std::vector<std::string> violations;
    auditKvRecovery(s, store, 0, image, violations);
    EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(KvCrash, RecoveryWalkDetectsATornValueRecord)
{
    KvSpec s = tinySpec();
    kv::KvStore store({0, 64});
    store.prefill(20);
    std::unordered_map<Addr, LineData> image(store.image().begin(),
                                             store.image().end());
    // Tear one payload word of a published record: the index points at
    // bytes that never became durable.
    const Addr rec = store.valueAddr(7);
    LineData &line = image[lineAlign(rec + 16)];
    line[lineOffset(rec + 16)] ^= 0xff;
    std::vector<std::string> violations;
    auditKvRecovery(s, store, 0, image, violations);
    ASSERT_FALSE(violations.empty());
    EXPECT_NE(violations.front().find("torn value record"),
              std::string::npos)
        << violations.front();
}

TEST(KvCrash, RecoveryWalkDetectsADanglingIndexPointer)
{
    KvSpec s = tinySpec();
    kv::KvStore store({0, 64});
    store.prefill(20);
    std::unordered_map<Addr, LineData> image(store.image().begin(),
                                             store.image().end());
    // Zero the record's key word: as if the pointer were published
    // before the record's value epoch reached the persist domain.
    const Addr rec = store.valueAddr(13);
    for (unsigned i = 0; i < 8; ++i)
        image[lineAlign(rec)][lineOffset(rec) + i] = 0;
    std::vector<std::string> violations;
    auditKvRecovery(s, store, 0, image, violations);
    ASSERT_FALSE(violations.empty());
    EXPECT_NE(violations.front().find("record key"), std::string::npos)
        << violations.front();
}

TEST(KvCrash, RecoveryWalkDetectsAnUnalignedValuePointer)
{
    KvSpec s = tinySpec();
    kv::KvStore store({0, 64});
    store.prefill(20);
    std::unordered_map<Addr, LineData> image(store.image().begin(),
                                             store.image().end());
    // Point the first node (key 1, the head's successor) 60 bytes into
    // its record's line: a word read there would run past the line.
    const Addr head = kv::KvLayout::baseFor(0) + kv::KvLayout::node_off;
    const Addr node = imageWord(image, head + 24);
    ASSERT_EQ(imageWord(image, node), 1u);
    const Addr bad = lineAlign(store.valueAddr(1)) + 60;
    std::memcpy(image[lineAlign(node + 8)].data() + lineOffset(node + 8),
                &bad, sizeof(bad));
    std::vector<std::string> violations;
    auditKvRecovery(s, store, 0, image, violations);
    ASSERT_FALSE(violations.empty());
    EXPECT_NE(violations.front().find("value pointer is not a word"),
              std::string::npos)
        << violations.front();
}

// ---------------------------------------------------------------------
// The bench grid and its JSON rendering

TEST(KvBench, JsonIsWellFormedSchemaTaggedAndDeterministic)
{
    KvBenchSpec spec;
    spec.base = tinySpec();
    spec.mixes = {"A", "B"};
    spec.cores = {1, 2};

    const KvBenchResult result = runKvBench(spec);
    ASSERT_EQ(result.rows.size(), 4u);

    std::ostringstream os;
    writeKvBenchJson(result, os);
    const JsonValue doc = parseJson(os.str(), "bench output");
    ASSERT_EQ(doc.type, JsonValue::Type::Object);
    ASSERT_NE(doc.field("schema"), nullptr);
    EXPECT_EQ(doc.field("schema")->text, "skipit-kv-bench-v1");
    ASSERT_NE(doc.field("config"), nullptr);
    ASSERT_NE(doc.field("runs"), nullptr);
    EXPECT_EQ(doc.field("runs")->items.size(), 8u); // 4 points x on/off
    ASSERT_NE(doc.field("comparisons"), nullptr);
    EXPECT_EQ(doc.field("comparisons")->items.size(), 4u);
    for (const JsonValue &run : doc.field("runs")->items) {
        ASSERT_NE(run.field("latency"), nullptr);
        EXPECT_NE(run.field("latency")->field("p99"), nullptr);
        EXPECT_NE(run.field("ops_per_kcycle"), nullptr);
    }

    // Byte-determinism of the whole pipeline: a second run renders the
    // same document.
    std::ostringstream os2;
    writeKvBenchJson(runKvBench(spec), os2);
    EXPECT_EQ(os.str(), os2.str());
}

TEST(KvBench, SpecParsesFromJson)
{
    const KvBenchSpec spec = KvBenchSpec::fromJsonText(R"({
        "mixes": ["A", "C"], "cores": [1, 4],
        "keys": 128, "ops": 99, "seed": 5, "theta": 0.7,
        "distribution": "zipfian", "value_bytes": 32,
        "arrival_period": 250, "slices": 2, "scan_len": 8,
        "checkpoint_every": 4
    })");
    EXPECT_EQ(spec.mixes, (std::vector<std::string>{"A", "C"}));
    EXPECT_EQ(spec.cores, (std::vector<unsigned>{1, 4}));
    EXPECT_EQ(spec.base.keys, 128u);
    EXPECT_EQ(spec.base.ops, 99u);
    EXPECT_EQ(spec.base.seed, 5u);
    EXPECT_DOUBLE_EQ(spec.base.theta, 0.7);
    EXPECT_EQ(spec.base.value_bytes, 32u);
    EXPECT_EQ(spec.base.arrival_period, 250u);
    EXPECT_EQ(spec.base.slices, 2u);
    EXPECT_EQ(spec.base.scan_len, 8u);
    EXPECT_EQ(spec.base.checkpoint_every, 4u);
    EXPECT_THROW(KvBenchSpec::fromJsonText("[1]"), std::runtime_error);
    EXPECT_THROW(KvBenchSpec::fromJsonText(R"({"mixes": []})"),
                 std::runtime_error);
    // Integer fields take plain unsigned integers that fit the field;
    // the error names the field.
    for (const char *bad :
         {R"({"keys": -5})", R"({"ops": 2.7})", R"({"seed": 1e3})",
          R"({"value_bytes": 4294967296})", R"({"arrival_period": -1})",
          R"({"slices": 0.5})", R"({"scan_len": 99999999999})",
          R"({"checkpoint_every": -16})",
          R"({"keys": 18446744073709551616})", R"({"cores": [-1]})",
          R"({"cores": [2, 1.5]})", R"({"cores": [4294967296]})",
          R"({"theta": "high"})"}) {
        const std::string text = bad;
        const std::string field = text.substr(2, text.find('"', 2) - 2);
        try {
            KvBenchSpec::fromJsonText(text);
            ADD_FAILURE() << text << " was accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("'" + field + "'"),
                      std::string::npos)
                << text << ": " << e.what();
        }
    }
    EXPECT_EQ(KvBenchSpec::fromJsonText(R"({"seed": 18446744073709551615})")
                  .base.seed,
              18446744073709551615u);
}

// The KV spec reads numbers through the same strict JSON grammar as the
// sweep: "keys": 0100 once served 100 keys.
TEST(KvBench, SpecRefusesNumbersJsonForbids)
{
    for (const std::string bad : {"0100", "-01", "1-2", "+1", "1.", "-"}) {
        const std::string text = R"({"keys": )" + bad + "}";
        try {
            KvBenchSpec::fromJsonText(text);
            ADD_FAILURE() << bad << " was accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "malformed number '" + bad + "' (at offset 9)"),
                      std::string::npos)
                << bad << ": " << e.what();
        }
    }
    EXPECT_EQ(KvBenchSpec::fromJsonText(R"({"keys": 100})").base.keys, 100u);
}

TEST(KvBench, SpecRefusesUnknownKeysAndGridOwnedFields)
{
    const auto error = [](const std::string &text) {
        try {
            KvBenchSpec::fromJsonText(text);
        } catch (const std::runtime_error &e) {
            return std::string(e.what());
        }
        return std::string();
    };
    // Misspelt keys must not serve the default machine in a closed loop.
    const std::string misspelt = error(
        R"({"mixes":["A"],"cores":[1],"keys":64,"ops":100,)"
        R"("arival_period":400,"fshrs":1,"l2_polciy":"exclusive"})");
    EXPECT_NE(misspelt.find("'arival_period'"), std::string::npos)
        << misspelt;
    EXPECT_NE(error(R"({"l2_polciy": "exclusive"})").find("'l2_polciy'"),
              std::string::npos);

    // A key names one value.
    EXPECT_NE(error(R"({"keys": 64, "keys": 32})")
                  .find("key 'keys' is given more than once"),
              std::string::npos);
    EXPECT_NE(error(R"({"fshrs": 1, "fshrs": 2})").find("'fshrs'"),
              std::string::npos);

    // Machine fields are top-level keys.
    const KvBenchSpec spec = KvBenchSpec::fromJsonText(
        R"({"fshrs": 1, "l2_policy": "exclusive", "llc_skip": false})");
    const SoCConfig cfg = kvMachineConfig(spec.base);
    EXPECT_EQ(cfg.l1.fshrs, 1u);
    EXPECT_EQ(cfg.l2.policy, StateKind::Exclusive);
    EXPECT_FALSE(cfg.l2.llc_skip);
    EXPECT_NE(error(R"({"fshrs": [1]})").find("fshrs must be"),
              std::string::npos);

    // The grid sets the slice count and turns the skip bit on and off.
    EXPECT_NE(error(R"({"l2_slices": 2})").find("\"slices\""),
              std::string::npos);
    for (const char *key : {"skipit", "grant_data_dirty"}) {
        EXPECT_NE(error(std::string("{\"") + key + "\": 0}")
                      .find("skip bit on and off"),
                  std::string::npos)
            << key;
    }
}

// ---------------------------------------------------------------------
// Wake audit

TEST(WakeAudit, TwoHartOpenLoopServe)
{
    // Arrival gates, fenced commits and checkpoint re-cleans: every
    // hart stall, LSU response and flush-counter edge of a KV serve must
    // wake its consumer exactly when a fresh nextWake() says so.
    KvSpec spec;
    spec.cores = 2;
    spec.keys = 256;
    spec.ops = 128;
    spec.arrival_period = 600;
    SoC soc(kvMachineConfig(spec));
    loadKvServe(spec, soc);
    soc.sim().auditWakes();
    soc.runToQuiescence(1'000'000);
    EXPECT_TRUE(soc.hart(0).done() && soc.hart(1).done());
    EXPECT_EQ(soc.sim().wakeAudit(), "");
}

} // namespace
} // namespace skipit::workloads
