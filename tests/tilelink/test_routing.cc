/**
 * @file
 * Unit tests for routing on the client links: slice-selection bits, A/C/E
 * requests delivered to the home slice of their line address as they are
 * sent, B and D back on the client's own link, per-client order, misroute
 * injection, and the inbound bit and wake a message in flight gives its
 * slice.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dram/dram.hh"
#include "l2/cache.hh"
#include "sim/bits.hh"
#include "tilelink/link.hh"

namespace skipit {
namespace {

/** A manager that never acts: the tests read the ports themselves. */
struct IdleManager final : Ticked
{
    IdleManager() : Ticked("manager") {}
    void tick() override {}
};

/** @p clients links over @p slices modulo-striped slices, wire latency
 *  1, and every slice's port onto every link. */
struct RoutedFixture
{
    RoutedFixture(unsigned clients, unsigned slices)
        : inbound(slices), ports(slices)
    {
        for (unsigned c = 0; c < clients; ++c) {
            links.push_back(std::make_unique<TLLink>(
                sim, 1, "c" + std::to_string(c) + ".tl", ChannelJitter{},
                L2IndexPolicy::modulo(slices, 1)));
        }
        for (unsigned s = 0; s < slices; ++s) {
            for (unsigned c = 0; c < clients; ++c) {
                ports[s].emplace_back(*links[c], s,
                                      static_cast<AgentId>(c));
                ports[s].back().bindInbound(inbound[s], bit(c), manager);
            }
        }
    }

    TLClientPort &port(unsigned slice, unsigned client)
    {
        return ports[slice][client];
    }

    Simulator sim;
    IdleManager manager;
    std::vector<TLInbound> inbound;
    std::vector<std::unique_ptr<TLLink>> links;
    std::vector<std::vector<TLClientPort>> ports;
};

TEST(SliceBits, PowerOfTwoWidths)
{
    EXPECT_EQ(sliceBits(1), 0u);
    EXPECT_EQ(sliceBits(2), 1u);
    EXPECT_EQ(sliceBits(4), 2u);
    EXPECT_EQ(sliceBits(8), 3u);
}

TEST(SliceBits, SliceOfLineUsesBitsAboveLineOffset)
{
    // Consecutive lines stripe across slices; sub-line offsets do not
    // change the home slice.
    for (unsigned i = 0; i < 8; ++i) {
        const Addr line = static_cast<Addr>(i) * line_bytes;
        EXPECT_EQ(sliceOfLine(line, 4), i % 4) << "line " << i;
        EXPECT_EQ(sliceOfLine(line, 2), i % 2) << "line " << i;
        EXPECT_EQ(sliceOfLine(line, 1), 0u) << "line " << i;
    }
}

TEST(RoutedLink, RoutesAByLineAddress)
{
    RoutedFixture f(1, 4);
    for (unsigned i = 0; i < 4; ++i) {
        AMsg m;
        m.addr = static_cast<Addr>(i) * line_bytes + 8; // off-line offset
        m.source = 0;
        f.links[0]->a.send(m);
    }
    f.sim.run(8); // all four arrive
    for (unsigned s = 0; s < 4; ++s) {
        TLClientPort &p = f.port(s, 0);
        ASSERT_TRUE(p.aReady()) << "slice " << s;
        EXPECT_EQ(p.aFront().addr, static_cast<Addr>(s) * line_bytes + 8);
        p.aPop();
        EXPECT_FALSE(p.aReady()) << "slice " << s;
        EXPECT_EQ(f.inbound[s].any(), 0u) << "slice " << s;
    }
}

TEST(RoutedLink, RoutesCAndEByLineAddress)
{
    RoutedFixture f(1, 2);
    CMsg c;
    c.op = COp::Release;
    c.addr = line_bytes; // homes to slice 1
    c.source = 0;
    f.links[0]->c.send(c);
    EMsg e;
    e.addr = 0; // homes to slice 0
    e.source = 0;
    f.links[0]->e.send(e);
    f.sim.run(4);
    EXPECT_FALSE(f.port(0, 0).cReady());
    EXPECT_FALSE(f.port(1, 0).eReady());
    ASSERT_TRUE(f.port(1, 0).cReady());
    EXPECT_EQ(f.port(1, 0).cPop().addr, Addr(line_bytes));
    ASSERT_TRUE(f.port(0, 0).eReady());
    EXPECT_EQ(f.port(0, 0).ePop().addr, Addr(0));
}

TEST(RoutedLink, SendsDOnTheRequestersLink)
{
    RoutedFixture f(2, 2);
    DMsg m;
    m.op = DOp::Grant;
    m.addr = 0x1000;
    m.dest = 1; // lands on client 1's link, from any slice
    f.port(0, 1).sendD(m, 1);
    f.sim.run(2);
    EXPECT_FALSE(f.links[0]->d.ready());
    ASSERT_TRUE(f.links[1]->d.ready());
    EXPECT_EQ(f.links[1]->d.recv().addr, 0x1000u);
}

TEST(RoutedLinkDeathTest, DResponseThroughAnotherClientsPortAborts)
{
    RoutedFixture f(2, 1);
    DMsg m;
    m.op = DOp::Grant;
    m.addr = 0x1000;
    m.dest = 1;
    EXPECT_DEATH(f.port(0, 0).sendD(m, 1),
                 "D response for agent 1 sent through client 0's port");
}

TEST(RoutedLink, RoutesBProbeByPortIdentity)
{
    RoutedFixture f(2, 2);
    BMsg m;
    m.addr = 0x2000;
    // A probe issued through client 0's port reaches client 0 only.
    f.port(1, 0).sendB(m);
    f.sim.run(2);
    ASSERT_TRUE(f.links[0]->b.ready());
    EXPECT_FALSE(f.links[1]->b.ready());
    EXPECT_EQ(f.links[0]->b.recv().addr, 0x2000u);
}

TEST(RoutedLink, PreservesPerClientOrderAcrossContention)
{
    RoutedFixture f(2, 2);
    // Both clients target the same slice in the same cycle; each
    // client's own order must survive.
    for (unsigned k = 0; k < 2; ++k) {
        for (unsigned c = 0; c < 2; ++c) {
            AMsg m;
            m.addr = 2 * k * line_bytes; // always slice 0
            m.source = static_cast<AgentId>(c);
            m.txn = 10 * c + k;
            f.links[c]->a.send(m);
        }
    }
    f.sim.run(8);
    EXPECT_FALSE(f.port(1, 0).aReady());
    EXPECT_FALSE(f.port(1, 1).aReady());
    for (unsigned c = 0; c < 2; ++c) {
        TLClientPort &p = f.port(0, c);
        for (unsigned k = 0; k < 2; ++k) {
            ASSERT_TRUE(p.aReady()) << "client " << c << " msg " << k;
            EXPECT_EQ(p.aPop().txn, TxnId(10 * c + k));
        }
        EXPECT_FALSE(p.aReady()) << "client " << c;
    }
}

TEST(RoutedLink, MisrouteInjectionFlipsExactlyOneRequest)
{
    RoutedFixture f(1, 2);
    f.links[0]->a.injectMisroute();
    AMsg a;
    a.addr = 0; // homes to slice 0, must be delivered to slice 1
    a.txn = 1;
    f.links[0]->a.send(a);
    AMsg b;
    b.addr = 0; // the next request routes correctly again
    b.txn = 2;
    f.links[0]->a.send(b);
    f.sim.run(8);
    ASSERT_TRUE(f.port(1, 0).aReady());
    EXPECT_EQ(f.port(1, 0).aPop().txn, TxnId(1));
    EXPECT_FALSE(f.port(1, 0).aReady());
    ASSERT_TRUE(f.port(0, 0).aReady());
    EXPECT_EQ(f.port(0, 0).aPop().txn, TxnId(2));
    EXPECT_FALSE(f.port(0, 0).aReady());
}

TEST(RoutedLink, InFlightMessageSetsTheSliceInboundBitAndItsWake)
{
    // A request in flight already belongs to its home slice: the slice's
    // inbound bit is set from the send, and the slice's nextWake() is
    // the arrival cycle, not now.
    Simulator sim;
    Stats stats;
    Dram dram("dram", sim, DramConfig{}, stats);
    L2Config cfg;
    cfg.slices = 2;
    L2Cache s0("l2.s0", sim, cfg, dram, stats, 0);
    L2Cache s1("l2.s1", sim, cfg, dram, stats, 1);
    TLLink link(sim, 3, "c0.tl", {}, cfg.indexPolicy());
    s0.connectPort(0, link);
    s1.connectPort(0, link);
    sim.add(dram);
    sim.add(s0);
    sim.add(s1);

    AMsg m;
    m.addr = line_bytes; // homes to slice 1
    m.source = 0;
    link.a.send(m); // arrives at cycle 3
    EXPECT_EQ(s1.inbound().a, bit(0));
    EXPECT_EQ(s0.inbound().any(), 0u);
    EXPECT_EQ(s1.nextWake(), 3u);
    EXPECT_EQ(s0.nextWake(), Ticked::wake_never);

    sim.run(3); // cycles 0-2: still on the wire
    EXPECT_EQ(s1.inbound().a, bit(0));
    EXPECT_TRUE(s1.idle());
    EXPECT_EQ(s1.nextWake(), 3u);

    sim.step(); // cycle 3: slice 1 takes the Acquire
    EXPECT_EQ(s1.inbound().any(), 0u);
    EXPECT_FALSE(s1.idle());
    EXPECT_EQ(s1.checkLiveSets(), "");
    EXPECT_EQ(s0.checkLiveSets(), "");
}

} // namespace
} // namespace skipit
