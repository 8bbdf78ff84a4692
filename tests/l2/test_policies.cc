/**
 * @file
 * Policy-layer tests: the shared indexing policy (modulo vs hashed, and
 * its single-source-of-truth contract with the links), the exclusive
 * state policy's store-bypassing fills and writeback promotion, end-to-end
 * coherence of the non-default policies under the invariant checker and
 * the jittered fuzzer, a crash-audited KV serve on the exclusive+hashed
 * configuration, and the negative control that a slice indexed
 * differently from its router is caught by the checker's slice-routing
 * invariant.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dram/dram.hh"
#include "l2/cache.hh"
#include "soc/soc.hh"
#include "verify/checker.hh"
#include "workloads/fuzz.hh"
#include "workloads/workloads.hh"
#include "workloads/ycsb.hh"

namespace skipit {
namespace {

// ---------------------------------------------------------------------
// Indexing policy.
// ---------------------------------------------------------------------

TEST(IndexPolicy, ModuloMatchesTheLegacyArithmetic)
{
    L2Config cfg;
    cfg.slices = 4;
    const L2IndexPolicy p = cfg.indexPolicy();
    for (Addr a = 0; a < 0x40000; a += line_bytes) {
        ASSERT_EQ(p.sliceOf(a), sliceOfLine(a, 4)) << std::hex << a;
        // The legacy set index: line number with the slice bits peeled
        // off, modulo the per-slice set count.
        const Addr line_no = a >> line_shift;
        ASSERT_EQ(p.setOf(a),
                  unsigned((line_no >> sliceBits(4)) %
                           (cfg.sets / 4)))
            << std::hex << a;
    }
}

TEST(IndexPolicy, HashedIsDeterministicAndCoversAllSlices)
{
    L2Config cfg;
    cfg.slices = 4;
    cfg.index = IndexKind::Hashed;
    const L2IndexPolicy p = cfg.indexPolicy();
    const L2IndexPolicy q = cfg.indexPolicy();
    std::set<unsigned> slices_seen;
    for (Addr a = 0; a < 0x40000; a += line_bytes) {
        ASSERT_EQ(p.sliceOf(a), q.sliceOf(a)); // pure function of seed
        ASSERT_LT(p.sliceOf(a), 4u);
        ASSERT_LT(p.setOf(a), cfg.sets / 4);
        slices_seen.insert(p.sliceOf(a));
    }
    EXPECT_EQ(slices_seen.size(), 4u);

    // A different key is a different permutation.
    L2Config other = cfg;
    other.index_seed = cfg.index_seed + 1;
    const L2IndexPolicy r = other.indexPolicy();
    bool diverged = false;
    for (Addr a = 0; a < 0x10000 && !diverged; a += line_bytes)
        diverged = p.sliceOf(a) != r.sliceOf(a) ||
                   p.setOf(a) != r.setOf(a);
    EXPECT_TRUE(diverged);
}

/** The message @p parse throws for @p token, or "" if it parses. */
template <typename Parse>
std::string
parseError(Parse parse, const std::string &token)
{
    try {
        parse(token);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return {};
}

TEST(IndexPolicy, TokenRoundTrips)
{
    for (const IndexKind k : {IndexKind::Modulo, IndexKind::Hashed})
        EXPECT_EQ(parseIndexKind(toString(k)), k);
    EXPECT_EQ(parseError(parseIndexKind, "skewed"),
              "l2_index must be modulo or hashed, got 'skewed'");

    for (const StateKind k : {StateKind::Inclusive, StateKind::Exclusive})
        EXPECT_EQ(parseStateKind(toString(k)), k);
    // The directory still tracks every holder, so "non-inclusive" names
    // the same data-residency policy.
    EXPECT_EQ(parseStateKind("noninclusive"), StateKind::Exclusive);
    EXPECT_EQ(parseError(parseStateKind, "victim"),
              "l2_policy must be inclusive or exclusive, got 'victim'");
}

TEST(IndexPolicy, CrossbarAndSlicesShareOnePolicyValue)
{
    for (const IndexKind kind : {IndexKind::Modulo, IndexKind::Hashed}) {
        SoCConfig cfg;
        cfg.l2.slices = 4;
        cfg.l2.index = kind;
        SoC soc(cfg);
        const L2IndexPolicy &homes = soc.link(0).a.homes();
        for (unsigned c = 0; c < soc.cores(); ++c) {
            EXPECT_TRUE(soc.link(c).a.homes() == homes &&
                        soc.link(c).c.homes() == homes &&
                        soc.link(c).e.homes() == homes)
                << toString(kind) << " core " << c;
        }
        for (unsigned s = 0; s < 4; ++s) {
            EXPECT_TRUE(homes == soc.l2(s).indexPolicy())
                << toString(kind) << " slice " << s;
            // homesLine is the same predicate the router applies.
            for (Addr a = 0; a < 64 * line_bytes; a += line_bytes)
                EXPECT_EQ(soc.l2(s).homesLine(a), homes.sliceOf(a) == s);
        }
    }
}

TEST(SoCDescribe, NamesThePolicyLayers)
{
    SoCConfig cfg;
    EXPECT_NE(cfg.describe().find(
                  "inclusive, modulo index, lru replacement"),
              std::string::npos);
    cfg.l2.policy = StateKind::Exclusive;
    cfg.l2.index = IndexKind::Hashed;
    cfg.l2.replace = ReplaceKind::Random;
    EXPECT_NE(cfg.describe().find(
                  "exclusive, hashed index, random replacement"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Exclusive state policy, driven directly over TileLink.
// ---------------------------------------------------------------------

/** A hand-cranked client end of a TileLink (no L1 logic). */
struct MockClient
{
    TLLink link;
    AgentId id;

    /** @param slices the slices the link routes to, modulo-striped */
    MockClient(Simulator &sim, AgentId id_, unsigned slices = 1)
        : link(sim, 1, "tl", {}, L2IndexPolicy::modulo(slices, 1)), id(id_)
    {
    }

    void
    acquire(Addr line, Grow grow)
    {
        AMsg m;
        m.addr = lineAlign(line);
        m.param = grow;
        m.source = id;
        link.a.send(m);
    }

    void
    grantAck(Addr line)
    {
        EMsg m;
        m.addr = lineAlign(line);
        m.source = id;
        link.e.send(m);
    }

    void
    sendC(COp op, Addr line, Shrink param,
          CboKind cbo = CboKind::Flush, std::uint64_t word0 = 0)
    {
        CMsg m;
        m.op = op;
        m.addr = lineAlign(line);
        m.param = param;
        m.cbo = cbo;
        m.source = id;
        std::memcpy(m.data.data(), &word0, 8);
        link.c.send(m, TLLink::beatsFor(m));
    }

    bool dReady() { return link.d.ready(); }
    DMsg dPop() { return link.d.recv(); }
    bool bReady() { return link.b.ready(); }
    BMsg bPop() { return link.b.recv(); }
};

class ExclusiveL2Test : public ::testing::Test
{
  protected:
    Simulator sim;
    Stats stats;
    L2Config cfg{};
    std::unique_ptr<Dram> dram;
    std::unique_ptr<L2Cache> l2;
    std::vector<std::unique_ptr<MockClient>> clients;

    void
    build(unsigned nclients = 2)
    {
        cfg.policy = StateKind::Exclusive;
        dram = std::make_unique<Dram>("dram", sim, DramConfig{}, stats);
        l2 = std::make_unique<L2Cache>("l2", sim, cfg, *dram, stats);
        for (unsigned c = 0; c < nclients; ++c) {
            const auto id = static_cast<AgentId>(c);
            clients.push_back(std::make_unique<MockClient>(sim, id));
            l2->connectPort(id, clients.back()->link);
        }
        sim.add(*dram);
        sim.add(*l2);
    }

    DMsg
    awaitD(MockClient &c)
    {
        sim.runUntil([&] { return c.dReady(); });
        return c.dPop();
    }

    DMsg
    doAcquire(MockClient &c, Addr line, Grow grow)
    {
        c.acquire(line, grow);
        const DMsg grant = awaitD(c);
        EXPECT_TRUE(grant.isGrant());
        c.grantAck(line);
        sim.runUntil([&] { return l2->idle(); });
        return grant;
    }

    const DirEntry &
    entryOf(Addr line)
    {
        const Directory &dir = l2->directory();
        const int way = dir.findWay(lineAlign(line));
        EXPECT_GE(way, 0);
        return dir.entry(dir.setOf(lineAlign(line)),
                         static_cast<unsigned>(way));
    }
};

TEST_F(ExclusiveL2Test, CleanFillBypassesTheBankedStore)
{
    build();
    LineData seeded{};
    seeded[0] = 0xAB;
    dram->pokeLine(0x1000, seeded);

    const DMsg grant = doAcquire(*clients[0], 0x1000, Grow::NtoB);
    EXPECT_EQ(grant.op, DOp::GrantData);
    EXPECT_EQ(grant.data[0], 0xAB); // granted straight from the stash

    // The directory tracks the holder, but the line is tag-only: its
    // bytes never entered the BankedStore.
    const DirEntry &e = entryOf(0x1000);
    EXPECT_TRUE(e.valid);
    EXPECT_FALSE(e.dirty);
    EXPECT_FALSE(e.data_resident);
    EXPECT_TRUE(e.heldBy(0));
}

TEST_F(ExclusiveL2Test, DirtyWritebackPromotesTheLineToResident)
{
    build();
    doAcquire(*clients[0], 0x2000, Grow::NtoT);
    EXPECT_FALSE(entryOf(0x2000).data_resident);

    clients[0]->sendC(COp::ReleaseData, 0x2000, Shrink::TtoN,
                      CboKind::Flush, 0x99);
    const DMsg ack = awaitD(*clients[0]);
    EXPECT_EQ(ack.op, DOp::ReleaseAck);
    sim.runUntil([&] { return l2->idle(); });

    // Dirty bytes can live nowhere else, so the writeback promotes the
    // entry to data-resident (dirty implies resident in every policy).
    const DirEntry &e = entryOf(0x2000);
    EXPECT_TRUE(e.dirty);
    EXPECT_TRUE(e.data_resident);
    EXPECT_TRUE(l2->isDirty(0x2000));
}

TEST_F(ExclusiveL2Test, TagOnlyLineIsRefetchedForTheNextReader)
{
    build();
    LineData seeded{};
    seeded[0] = 0xCD;
    dram->pokeLine(0x3000, seeded);

    // Client 0 takes a clean (tag-only) copy; client 1's acquire must
    // re-fetch the bytes from DRAM rather than read the BankedStore.
    // The sole reader was granted Trunk, so the L2 first downgrades it;
    // the clean ProbeAck carries no data, forcing the fetch.
    doAcquire(*clients[0], 0x3000, Grow::NtoB);
    clients[1]->acquire(0x3000, Grow::NtoB);
    sim.runUntil([&] { return clients[0]->bReady(); });
    clients[0]->bPop();
    clients[0]->sendC(COp::ProbeAck, 0x3000, Shrink::TtoB);
    const DMsg grant = awaitD(*clients[1]);
    EXPECT_EQ(grant.op, DOp::GrantData);
    EXPECT_EQ(grant.data[0], 0xCD);
    clients[1]->grantAck(0x3000);
    sim.runUntil([&] { return l2->idle(); });
}

// ---------------------------------------------------------------------
// End-to-end coverage of the non-default policies.
// ---------------------------------------------------------------------

TEST(PolicyEndToEnd, ExclusiveLlcIsCoherentOnTheCboWorkload)
{
    // Checker is fatal: any coherence or data-residency violation
    // aborts. Covers both flush kinds and multi-slice exclusive.
    for (const bool flush : {false, true}) {
        SoCConfig cfg;
        cfg.cores = 2;
        cfg.l2.policy = StateKind::Exclusive;
        cfg.l2.slices = 2;
        EXPECT_GT(workloads::cboLatency(cfg, 2, 4096, flush), 0u);
    }
}

TEST(PolicyEndToEnd, HashedIndexMultiSliceRunIsCoherent)
{
    SoCConfig cfg;
    cfg.cores = 1;
    cfg.l2.slices = 4;
    cfg.l2.index = IndexKind::Hashed;
    SoC soc(cfg);
    constexpr unsigned lines = 32;
    constexpr Addr base = 0x20000;
    Program p;
    for (unsigned i = 0; i < lines; ++i)
        p.push_back(MemOp::store(base + i * line_bytes, 0xB0 + i));
    for (unsigned i = 0; i < lines; ++i)
        p.push_back(MemOp::flush(base + i * line_bytes));
    p.push_back(MemOp::fence());
    soc.setPrograms({p});
    soc.runToQuiescence();

    std::set<unsigned> homes;
    for (unsigned i = 0; i < lines; ++i) {
        const Addr a = base + i * line_bytes;
        EXPECT_EQ(soc.dram().peekWord(a), 0xB0 + i) << "line " << i;
        homes.insert(soc.link(0).a.homes().sliceOf(a));
    }
    // The hash actually stripes this contiguous range across slices.
    EXPECT_GE(homes.size(), 2u);
    EXPECT_EQ(soc.checker().checkNow(), 0u);
}

TEST(PolicyEndToEnd, MisrouteUnderHashedIndexTripsTheChecker)
{
    SoCConfig cfg;
    cfg.cores = 2;
    cfg.l2.slices = 2;
    cfg.l2.index = IndexKind::Hashed;
    cfg.verify.fatal = false;
    SoC soc(cfg);
    soc.link(0).a.injectMisroute();
    Program p;
    p.push_back(MemOp::store(0x4000, 1));
    p.push_back(MemOp::store(0x4040, 2));
    soc.setPrograms({p, p});
    soc.runToCompletion(200'000);
    ASSERT_FALSE(soc.checker().clean());
    EXPECT_EQ(soc.checker().violations().front().invariant,
              "slice-routing");
}

TEST(PolicyEndToEnd, SliceIndexedDifferentlyFromItsRouterIsCaught)
{
    // The negative control for the shared-index contract: build two
    // slices that index with the *hashed* policy behind a modulo
    // router. The slice accepts what the router delivers (slices trust
    // their router by design) and the checker's slice-routing audit —
    // which asks each slice's own homesLine — must flag it.
    Simulator sim;
    Stats stats;
    L2Config cfg;
    cfg.slices = 2;
    cfg.index = IndexKind::Hashed;
    Dram dram("dram", sim, DramConfig{}, stats);
    L2Cache s0("l2.s0", sim, cfg, dram, stats, 0);
    L2Cache s1("l2.s1", sim, cfg, dram, stats, 1);

    MockClient client(sim, 0, 2);
    s0.connectPort(0, client.link);
    s1.connectPort(0, client.link);

    verify::CheckerConfig vcfg;
    vcfg.fatal = false;
    verify::CoherenceChecker checker("checker", sim, vcfg);
    checker.setL2(s0);
    checker.setL2(s1);
    checker.setDram(dram);

    sim.add(dram);
    sim.add(s0);
    sim.add(s1);
    sim.add(checker);

    // A line the hashed policy homes to slice 1 and the modulo router
    // delivers to slice 0.
    Addr line = 0x1000;
    while (cfg.indexPolicy().sliceOf(line) != 1 ||
           client.link.a.homes().sliceOf(line) != 0)
        line += line_bytes;

    client.acquire(line, Grow::NtoB);
    sim.runUntil([&] { return client.dReady(); });
    client.grantAck(line);
    sim.runUntil([&] { return s0.idle(); });

    checker.checkNow();
    ASSERT_FALSE(checker.clean());
    EXPECT_EQ(checker.violations().front().invariant, "slice-routing");
}

TEST(PolicyEndToEnd, SliceHoldingAForeignLineIsReportedEverySweep)
{
    // The machine of SliceIndexedDifferentlyFromItsRouterIsCaught, run
    // on after slice 0 has gone idle: the misrouted line then lives only
    // in slice 0's directory, so only the deep check, at value-sweep
    // cadence, can still report it. Pins the whole latched list.
    Simulator sim;
    Stats stats;
    L2Config cfg;
    cfg.slices = 2;
    cfg.index = IndexKind::Hashed;
    Dram dram("dram", sim, DramConfig{}, stats);
    L2Cache s0("l2.s0", sim, cfg, dram, stats, 0);
    L2Cache s1("l2.s1", sim, cfg, dram, stats, 1);

    MockClient client(sim, 0, 2);
    s0.connectPort(0, client.link);
    s1.connectPort(0, client.link);

    verify::CheckerConfig vcfg;
    vcfg.fatal = false;
    vcfg.max_violations = 128;
    verify::CoherenceChecker checker("checker", sim, vcfg);
    checker.setL2(s0);
    checker.setL2(s1);
    checker.setDram(dram);

    sim.add(dram);
    sim.add(s0);
    sim.add(s1);
    sim.add(checker);

    Addr line = 0x1000;
    while (cfg.indexPolicy().sliceOf(line) != 1 ||
           client.link.a.homes().sliceOf(line) != 0)
        line += line_bytes;
    ASSERT_EQ(line, 0x1000u);

    client.acquire(line, Grow::NtoB);
    sim.runUntil([&] { return client.dReady(); });
    client.grantAck(line);
    sim.runUntil([&] { return s0.idle(); });
    for (int i = 0; i < 48; ++i)
        sim.step();

    std::ostringstream got;
    for (const verify::Violation &v : checker.violations())
        got << v.cycle << " [" << v.invariant << "] " << v.detail << "\n";
    // Cycles 1-103: the shallow check sees the misrouted MSHR in every
    // cycle, and the deep one (every 16th checked cycle) reports it too.
    // From cycle 104 slice 0 is idle and only its directory holds the
    // line.
    const auto report = [](Cycle c, const char *verb) {
        return std::to_string(c) + " [slice-routing] L2 slice 0 " + verb +
               " line 0x1000 which homes to slice 1\n";
    };
    std::string want;
    for (Cycle c = 1; c <= 103; ++c) {
        want += report(c, "is working on");
        if (c % 16 == 15)
            want += report(c, "holds");
    }
    for (const Cycle c : {111, 127, 143})
        want += report(c, "holds");
    EXPECT_EQ(got.str(), want);
}

TEST(PolicyEndToEnd, FuzzSmokeAcrossThePolicyGrid)
{
    // A few jittered seeds on each non-default corner of the grid; the
    // CI policy-matrix job runs the deep sweeps.
    struct Point
    {
        StateKind policy;
        IndexKind index;
        unsigned slices;
    };
    const Point points[] = {
        {StateKind::Exclusive, IndexKind::Modulo, 1},
        {StateKind::Exclusive, IndexKind::Hashed, 2},
        {StateKind::Inclusive, IndexKind::Hashed, 2},
    };
    for (const Point &pt : points) {
        workloads::FuzzSpec spec;
        spec.machine.cores = 2;
        spec.ops = 60;
        spec.lines = 4;
        spec.max_cycles = 500'000;
        spec.machine.l2.policy = pt.policy;
        spec.machine.l2.index = pt.index;
        spec.machine.l2.slices = pt.slices;
        const auto failure = workloads::runFuzz(spec, 0, 10, 2);
        EXPECT_FALSE(failure.has_value())
            << toString(pt.policy) << "/" << toString(pt.index) << "/"
            << pt.slices << ": seed " << failure->seed << " "
            << failure->kind << ": " << failure->detail;
    }
}

TEST(PolicyEndToEnd, ExclusiveHashedKvCrashAuditIsDurable)
{
    workloads::KvSpec s;
    s.mix = "A";
    s.keys = 32;
    s.ops = 40;
    s.cores = 2;
    s.seed = 3;
    s.slices = 2;
    s.machine.l2.policy = StateKind::Exclusive;
    s.machine.l2.index = IndexKind::Hashed;
    s.crash_at = 6000;
    const workloads::KvRunResult r = workloads::runKv(s);
    EXPECT_TRUE(r.crashed);
    EXPECT_TRUE(r.durable())
        << r.oracle_violations << " oracle violation(s), "
        << r.recovery_violations.size() << " recovery violation(s)";
}

} // namespace
} // namespace skipit
