/**
 * @file
 * L2 directory transition table: for every starting holder configuration
 * (none, one branch, two branches, foreign trunk) and every incoming
 * transaction (acquire-to-read, acquire-to-write, each RootRelease kind),
 * check the probes generated, the final directory state, and whether
 * DRAM was written.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "dram/dram.hh"
#include "l2/cache.hh"

namespace skipit {
namespace {

/** Hand-cranked client (same shape as in test_inclusive_cache.cc). */
struct Client
{
    TLLink link;
    AgentId id;
    Client(Simulator &sim, AgentId id_) : link(sim, 1), id(id_) {}
};

class L2Table : public ::testing::Test
{
  protected:
    static constexpr Addr line = 0x8000;

    Simulator sim;
    Stats stats;
    DramConfig dcfg{};
    L2Config cfg{};
    std::unique_ptr<Dram> dram;
    std::unique_ptr<L2Cache> l2;
    std::vector<std::unique_ptr<Client>> clients;

    void
    SetUp() override
    {
        dram = std::make_unique<Dram>("dram", sim, dcfg, stats);
        l2 = std::make_unique<L2Cache>("l2", sim, cfg, *dram, stats);
        for (AgentId c = 0; c < 3; ++c) {
            clients.push_back(std::make_unique<Client>(sim, c));
            l2->connectClient(c, clients.back()->link);
        }
        sim.add(*dram);
        sim.add(*l2);
    }

    /** Auto-answer every probe a client receives with the truthful
     *  report given what it holds; returns probes seen. */
    struct HolderState
    {
        ClientState state = ClientState::Nothing;
        bool dirty = false;
        std::uint64_t word = 0;
    };
    std::array<HolderState, 3> holders{};
    std::array<unsigned, 3> probes_seen{};

    void
    pump()
    {
        for (AgentId c = 0; c < 3; ++c) {
            TLLink &lk = clients[static_cast<unsigned>(c)]->link;
            while (lk.b.ready()) {
                const BMsg probe = lk.b.recv();
                ++probes_seen[static_cast<unsigned>(c)];
                HolderState &h = holders[static_cast<unsigned>(c)];
                const ClientState next = applyCap(h.state, probe.param);
                CMsg ack;
                ack.addr = probe.addr;
                ack.source = c;
                ack.param = shrinkFor(h.state, next);
                if (h.dirty) {
                    ack.op = COp::ProbeAckData;
                    std::memcpy(ack.data.data(), &h.word, 8);
                    h.dirty = false;
                } else {
                    ack.op = COp::ProbeAck;
                }
                h.state = next;
                lk.c.send(ack, TLLink::beatsFor(ack));
            }
        }
    }

    /** Establish: client 0 acquires with @p grow; optionally dirties. */
    void
    establish(AgentId c, Grow grow, bool dirty, std::uint64_t word = 0xAA)
    {
        TLLink &lk = clients[static_cast<unsigned>(c)]->link;
        AMsg a;
        a.addr = line;
        a.param = grow;
        a.source = c;
        lk.a.send(a);
        sim.runUntil([&] {
            pump();
            return lk.d.ready();
        });
        const DMsg grant = lk.d.recv();
        EXPECT_TRUE(grant.isGrant());
        holders[static_cast<unsigned>(c)].state = stateForCap(grant.cap);
        holders[static_cast<unsigned>(c)].dirty = dirty;
        holders[static_cast<unsigned>(c)].word = word;
        EMsg e;
        e.addr = line;
        e.source = c;
        lk.e.send(e);
        sim.runUntil([&] {
            pump();
            return l2->idle();
        });
    }

    /** Send a RootRelease from @p c and wait for its ack. */
    void
    rootRelease(AgentId c, CboKind kind)
    {
        TLLink &lk = clients[static_cast<unsigned>(c)]->link;
        HolderState &h = holders[static_cast<unsigned>(c)];
        CMsg m;
        m.addr = line;
        m.source = c;
        m.cbo = kind;
        const ClientState next = kind == CboKind::Clean
                                     ? h.state
                                     : ClientState::Nothing;
        m.param = shrinkFor(h.state, next);
        if (h.dirty && kind != CboKind::Inval) {
            m.op = COp::RootReleaseData;
            std::memcpy(m.data.data(), &h.word, 8);
            h.dirty = false;
        } else {
            m.op = COp::RootRelease;
        }
        h.state = next;
        lk.c.send(m, TLLink::beatsFor(m));
        sim.runUntil([&] {
            pump();
            if (!lk.d.ready())
                return false;
            return lk.d.front().op == DOp::RootReleaseAck;
        });
        lk.d.recv();
        sim.runUntil([&] {
            pump();
            return l2->idle();
        });
    }
};

TEST_F(L2Table, FlushFromThirdPartyCollectsForeignDirtyTrunk)
{
    establish(0, Grow::NtoT, true, 0xBEEF);
    rootRelease(1, CboKind::Flush); // requester holds nothing
    EXPECT_EQ(probes_seen[0], 1u); // trunk probed out
    EXPECT_EQ(dram->peekWord(line), 0xBEEFu);
    EXPECT_FALSE(l2->isResident(line));
}

TEST_F(L2Table, CleanFromThirdPartyDowngradesForeignTrunk)
{
    establish(0, Grow::NtoT, true, 0xF00D);
    rootRelease(1, CboKind::Clean);
    EXPECT_EQ(probes_seen[0], 1u);
    EXPECT_EQ(holders[0].state, ClientState::Branch); // toB, not toN
    EXPECT_EQ(dram->peekWord(line), 0xF00Du);
    EXPECT_TRUE(l2->isResident(line));
    EXPECT_FALSE(l2->isDirty(line));
}

TEST_F(L2Table, InvalDiscardsForeignDirtyData)
{
    establish(0, Grow::NtoT, true, 0xDEAD);
    rootRelease(1, CboKind::Inval);
    EXPECT_EQ(probes_seen[0], 1u); // revoked like a flush
    EXPECT_EQ(holders[0].state, ClientState::Nothing);
    EXPECT_EQ(dram->peekWord(line), 0u); // data discarded, not written
    EXPECT_FALSE(l2->isResident(line));
}

TEST_F(L2Table, CleanWithOnlyBranchHoldersProbesNobody)
{
    establish(0, Grow::NtoB, false);
    // Downgrade client 0 to Branch by having client 1 share the line.
    establish(1, Grow::NtoB, false);
    probes_seen = {};
    rootRelease(2, CboKind::Clean);
    EXPECT_EQ(probes_seen[0] + probes_seen[1], 0u); // no writable copy
    EXPECT_TRUE(l2->isResident(line));
}

TEST_F(L2Table, FlushWithTwoBranchHoldersRevokesBoth)
{
    establish(0, Grow::NtoB, false);
    establish(1, Grow::NtoB, false);
    probes_seen = {};
    rootRelease(2, CboKind::Flush);
    EXPECT_EQ(probes_seen[0], 1u);
    EXPECT_EQ(probes_seen[1], 1u);
    EXPECT_EQ(holders[0].state, ClientState::Nothing);
    EXPECT_EQ(holders[1].state, ClientState::Nothing);
    EXPECT_FALSE(l2->isResident(line));
}

TEST_F(L2Table, RequesterReportAppliedBeforeProbing)
{
    // The requester flushes its own dirty trunk: its RootReleaseData
    // report (TtoN) removes it from the directory, so no probe comes
    // back at it.
    establish(0, Grow::NtoT, true, 0x77);
    probes_seen = {};
    rootRelease(0, CboKind::Flush);
    EXPECT_EQ(probes_seen[0], 0u);
    EXPECT_EQ(dram->peekWord(line), 0x77u);
}

TEST_F(L2Table, CleanDoesNotDisturbRequesterTrunk)
{
    establish(0, Grow::NtoT, true, 0x55);
    probes_seen = {};
    rootRelease(0, CboKind::Clean); // TtoT report
    EXPECT_EQ(probes_seen[0], 0u);
    EXPECT_EQ(holders[0].state, ClientState::Trunk);
    EXPECT_EQ(dram->peekWord(line), 0x55u);
}

} // namespace
} // namespace skipit
