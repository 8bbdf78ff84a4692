/**
 * @file
 * Unit tests of the inclusive L2 driven directly over TileLink by mock
 * clients: acquire/grant/ack flows, directory bookkeeping, probe
 * generation, RootRelease execution (§5.5), the LLC dirty-bit skip, the
 * GrantDataDirty selection (§6), and inclusive victim back-invalidation.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "dram/dram.hh"
#include "l2/cache.hh"

namespace skipit {
namespace {

/** A hand-cranked client end of a TileLink (no L1 logic, just messages). */
struct MockClient
{
    TLLink link;
    AgentId id;

    MockClient(Simulator &sim, AgentId id_) : link(sim, 1), id(id_) {}

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
    sendC(COp op, Addr line, Shrink param, CboKind cbo = CboKind::Flush,
          std::uint64_t word0 = 0)
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

class L2Test : public ::testing::Test
{
  protected:
    Simulator sim;
    Stats stats;
    L2Config cfg{};
    DramConfig dcfg{};
    std::unique_ptr<Dram> dram;
    std::unique_ptr<L2Cache> l2;
    std::vector<std::unique_ptr<MockClient>> clients;

    void
    build(unsigned nclients = 2)
    {
        dram = std::make_unique<Dram>("dram", sim, dcfg, stats);
        l2 = std::make_unique<L2Cache>("l2", sim, cfg, *dram, stats);
        for (unsigned c = 0; c < nclients; ++c) {
            clients.push_back(std::make_unique<MockClient>(
                sim, static_cast<AgentId>(c)));
            l2->connectClient(static_cast<AgentId>(c),
                              clients.back()->link);
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

    BMsg
    awaitB(MockClient &c)
    {
        sim.runUntil([&] { return c.bReady(); });
        return c.bPop();
    }

    /** Full acquire handshake; returns the grant. */
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
};

TEST_F(L2Test, ColdAcquireFetchesFromDramAndGrantsClean)
{
    build();
    LineData seeded{};
    seeded[0] = 0xAB;
    dram->pokeLine(0x1000, seeded);

    const DMsg grant = doAcquire(*clients[0], 0x1000, Grow::NtoB);
    EXPECT_EQ(grant.op, DOp::GrantData);
    EXPECT_EQ(grant.data[0], 0xAB);
    // Sole reader is granted exclusive (Trunk), like the SiFive L2.
    EXPECT_EQ(grant.cap, Cap::toT);
    EXPECT_TRUE(l2->isResident(0x1000));
    EXPECT_FALSE(l2->isDirty(0x1000));
}

TEST_F(L2Test, SecondReaderSharesAfterTrunkDowngrade)
{
    build();
    doAcquire(*clients[0], 0x2000, Grow::NtoB); // granted toT (sole)

    clients[1]->acquire(0x2000, Grow::NtoB);
    // The L2 must probe client 0 down to Branch first.
    const BMsg probe = awaitB(*clients[0]);
    EXPECT_EQ(probe.addr, 0x2000u);
    EXPECT_EQ(probe.param, Cap::toB);
    clients[0]->sendC(COp::ProbeAck, 0x2000, Shrink::TtoB);

    const DMsg grant = awaitD(*clients[1]);
    EXPECT_EQ(grant.cap, Cap::toB);
    clients[1]->grantAck(0x2000);
    sim.runUntil([&] { return l2->idle(); });
}

TEST_F(L2Test, WriterInvalidatesAllBranchHolders)
{
    build();
    doAcquire(*clients[0], 0x3000, Grow::NtoB);

    clients[1]->acquire(0x3000, Grow::NtoT);
    const BMsg probe = awaitB(*clients[0]);
    EXPECT_EQ(probe.param, Cap::toN);
    clients[0]->sendC(COp::ProbeAck, 0x3000, Shrink::TtoN);
    const DMsg grant = awaitD(*clients[1]);
    EXPECT_EQ(grant.cap, Cap::toT);
    clients[1]->grantAck(0x3000);
    sim.runUntil([&] { return l2->idle(); });
}

TEST_F(L2Test, ProbeAckDataMarksLineDirtyAndGrantsDirty)
{
    build();
    doAcquire(*clients[0], 0x4000, Grow::NtoT);

    clients[1]->acquire(0x4000, Grow::NtoB);
    awaitB(*clients[0]);
    clients[0]->sendC(COp::ProbeAckData, 0x4000, Shrink::TtoB,
                      CboKind::Flush, 0x77);
    const DMsg grant = awaitD(*clients[1]);
    // Skip It (§6): the line is dirty in L2, so the grant says so.
    EXPECT_EQ(grant.op, DOp::GrantDataDirty);
    std::uint64_t w = 0;
    std::memcpy(&w, grant.data.data(), 8);
    EXPECT_EQ(w, 0x77u);
    clients[1]->grantAck(0x4000);
    sim.runUntil([&] { return l2->idle(); });
    EXPECT_TRUE(l2->isDirty(0x4000));
}

TEST_F(L2Test, GrantDataDirtyDisabledByConfig)
{
    cfg.grant_data_dirty = false;
    build();
    doAcquire(*clients[0], 0x5000, Grow::NtoT);
    clients[1]->acquire(0x5000, Grow::NtoB);
    awaitB(*clients[0]);
    clients[0]->sendC(COp::ProbeAckData, 0x5000, Shrink::TtoB);
    const DMsg grant = awaitD(*clients[1]);
    EXPECT_EQ(grant.op, DOp::GrantData); // pre-Skip-It L2
    clients[1]->grantAck(0x5000);
    sim.runUntil([&] { return l2->idle(); });
}

TEST_F(L2Test, ReleaseDataUpdatesStoreAndAcks)
{
    build();
    doAcquire(*clients[0], 0x6000, Grow::NtoT);
    clients[0]->sendC(COp::ReleaseData, 0x6000, Shrink::TtoN,
                      CboKind::Flush, 0x99);
    const DMsg ack = awaitD(*clients[0]);
    EXPECT_EQ(ack.op, DOp::ReleaseAck);
    EXPECT_TRUE(l2->isDirty(0x6000));
}

TEST_F(L2Test, RootReleaseDataWritesDramAndAcks)
{
    build();
    doAcquire(*clients[0], 0x7000, Grow::NtoT);
    // The core flushed a dirty line: RootReleaseData with TtoN (§5.1).
    clients[0]->sendC(COp::RootReleaseData, 0x7000, Shrink::TtoN,
                      CboKind::Flush, 0x1234);
    const DMsg ack = awaitD(*clients[0]);
    EXPECT_EQ(ack.op, DOp::RootReleaseAck);
    sim.runUntil([&] { return l2->idle(); });
    EXPECT_EQ(dram->peekWord(0x7000), 0x1234u);
    // CBO.FLUSH invalidates the L2 copy as well.
    EXPECT_FALSE(l2->isResident(0x7000));
}

TEST_F(L2Test, RootReleaseCleanKeepsLineCleansDirty)
{
    build();
    doAcquire(*clients[0], 0x8000, Grow::NtoT);
    clients[0]->sendC(COp::RootReleaseData, 0x8000, Shrink::TtoT,
                      CboKind::Clean, 0x4321);
    const DMsg ack = awaitD(*clients[0]);
    EXPECT_EQ(ack.op, DOp::RootReleaseAck);
    sim.runUntil([&] { return l2->idle(); });
    EXPECT_EQ(dram->peekWord(0x8000), 0x4321u);
    EXPECT_TRUE(l2->isResident(0x8000));
    EXPECT_FALSE(l2->isDirty(0x8000));
}

TEST_F(L2Test, LlcSkipAvoidsDramWriteForCleanLine)
{
    build();
    doAcquire(*clients[0], 0x9000, Grow::NtoB);
    const auto writes_before = stats.get("dram.writes");
    // Clean line, clean writeback: the dirty-bit check skips DRAM (§5.5).
    clients[0]->sendC(COp::RootRelease, 0x9000, Shrink::BtoB,
                      CboKind::Clean);
    const DMsg ack = awaitD(*clients[0]);
    EXPECT_EQ(ack.op, DOp::RootReleaseAck);
    EXPECT_EQ(stats.get("dram.writes"), writes_before);
    EXPECT_GE(stats.get("l2.rootrelease.llc_skipped"), 1u);
}

TEST_F(L2Test, LlcSkipDisabledWritesCleanLines)
{
    cfg.llc_skip = false;
    build();
    doAcquire(*clients[0], 0xa000, Grow::NtoB);
    const auto writes_before = stats.get("dram.writes");
    clients[0]->sendC(COp::RootRelease, 0xa000, Shrink::BtoB,
                      CboKind::Clean);
    awaitD(*clients[0]);
    sim.runUntil([&] { return l2->idle(); });
    EXPECT_EQ(stats.get("dram.writes"), writes_before + 1);
}

TEST_F(L2Test, RootReleaseForNonResidentLineAcksImmediately)
{
    build();
    clients[0]->sendC(COp::RootRelease, 0xb000, Shrink::NtoN,
                      CboKind::Flush);
    const DMsg ack = awaitD(*clients[0]);
    EXPECT_EQ(ack.op, DOp::RootReleaseAck);
    EXPECT_EQ(stats.get("dram.writes"), 0u);
}

TEST_F(L2Test, RootReleaseFlushProbesOtherHoldersToN)
{
    build();
    // Client 0 owns the line dirty; client 1 flushes it (§5.5: probing
    // happens even though the requester holds nothing).
    doAcquire(*clients[0], 0xc000, Grow::NtoT);
    clients[1]->sendC(COp::RootRelease, 0xc000, Shrink::NtoN,
                      CboKind::Flush);
    const BMsg probe = awaitB(*clients[0]);
    EXPECT_EQ(probe.param, Cap::toN);
    clients[0]->sendC(COp::ProbeAckData, 0xc000, Shrink::TtoN,
                      CboKind::Flush, 0xBEEF);
    const DMsg ack = awaitD(*clients[1]);
    EXPECT_EQ(ack.op, DOp::RootReleaseAck);
    sim.runUntil([&] { return l2->idle(); });
    EXPECT_EQ(dram->peekWord(0xc000), 0xBEEFu);
    EXPECT_FALSE(l2->isResident(0xc000));
}

TEST_F(L2Test, RootReleaseCleanProbesOnlyForeignTrunk)
{
    build();
    doAcquire(*clients[0], 0xd000, Grow::NtoT);
    clients[1]->sendC(COp::RootRelease, 0xd000, Shrink::NtoN,
                      CboKind::Clean);
    const BMsg probe = awaitB(*clients[0]);
    EXPECT_EQ(probe.param, Cap::toB); // downgrade, don't revoke
    clients[0]->sendC(COp::ProbeAckData, 0xd000, Shrink::TtoB,
                      CboKind::Clean, 0xF00D);
    awaitD(*clients[1]);
    sim.runUntil([&] { return l2->idle(); });
    EXPECT_EQ(dram->peekWord(0xd000), 0xF00Du);
    EXPECT_TRUE(l2->isResident(0xd000)); // clean keeps the line
    EXPECT_FALSE(l2->isDirty(0xd000));
}

TEST_F(L2Test, VictimEvictionBackInvalidatesL1Holders)
{
    cfg.sets = 1; // tiny L2: every line maps to the same set
    cfg.ways = 2;
    build();
    doAcquire(*clients[0], 0x10000, Grow::NtoB);
    doAcquire(*clients[0], 0x20000, Grow::NtoB);
    // Third line forces a victim; its L1 copy must be probed out
    // (inclusivity).
    clients[0]->acquire(0x30000, Grow::NtoB);
    const BMsg probe = awaitB(*clients[0]);
    EXPECT_EQ(probe.param, Cap::toN);
    const Addr victim = probe.addr;
    EXPECT_TRUE(victim == 0x10000 || victim == 0x20000);
    clients[0]->sendC(COp::ProbeAck, victim, Shrink::TtoN);
    const DMsg grant = awaitD(*clients[0]);
    EXPECT_TRUE(grant.isGrant());
    clients[0]->grantAck(0x30000);
    sim.runUntil([&] { return l2->idle(); });
    EXPECT_FALSE(l2->isResident(victim));
    EXPECT_TRUE(l2->isResident(0x30000));
}

TEST_F(L2Test, DirtyVictimWrittenBackToDram)
{
    cfg.sets = 1;
    cfg.ways = 1;
    build();
    doAcquire(*clients[0], 0x40000, Grow::NtoT);
    // Dirty the line via a voluntary release.
    clients[0]->sendC(COp::ReleaseData, 0x40000, Shrink::TtoN,
                      CboKind::Flush, 0xDADA);
    awaitD(*clients[0]); // ReleaseAck
    // A new line displaces it; the dirty victim must land in DRAM.
    doAcquire(*clients[0], 0x50000, Grow::NtoB);
    EXPECT_EQ(dram->peekWord(0x40000), 0xDADAu);
}

TEST_F(L2Test, DirectoryTracksHoldersExactly)
{
    build();
    doAcquire(*clients[0], 0x60000, Grow::NtoB);
    const int way = l2->directory().findWay(0x60000);
    ASSERT_GE(way, 0);
    const unsigned set = l2->directory().setOf(0x60000);
    const DirEntry &e = l2->directory().entry(set,
                                              static_cast<unsigned>(way));
    EXPECT_TRUE(e.heldBy(0));
    EXPECT_FALSE(e.heldBy(1));
}

} // namespace
} // namespace skipit
