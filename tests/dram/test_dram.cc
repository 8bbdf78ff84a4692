/**
 * @file
 * Unit tests for the DRAM controller and its functional backing store.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "dram/dram.hh"

namespace skipit {
namespace {

class DramTest : public ::testing::Test
{
  protected:
    Simulator sim;
    Stats stats;
    DramConfig cfg{};

    std::unique_ptr<Dram> make()
    {
        auto d = std::make_unique<Dram>("dram", sim, cfg, stats);
        sim.add(*d);
        return d;
    }

    static LineData
    pattern(std::uint8_t seed)
    {
        LineData d{};
        for (unsigned i = 0; i < line_bytes; ++i)
            d[i] = static_cast<std::uint8_t>(seed + i);
        return d;
    }
};

TEST_F(DramTest, ReadOfUntouchedMemoryIsZero)
{
    auto d = make();
    MemReq req;
    req.addr = 0x4000;
    req.tag = 9;
    d->submit(req);
    sim.runUntil([&] { return d->respReady(); });
    const MemResp resp = d->popResp();
    EXPECT_EQ(resp.tag, 9u);
    EXPECT_FALSE(resp.write);
    EXPECT_EQ(resp.data, LineData{});
}

TEST_F(DramTest, WriteThenReadRoundTrips)
{
    auto d = make();
    MemReq w;
    w.write = true;
    w.addr = 0x8000;
    w.data = pattern(3);
    w.tag = 1;
    d->submit(w);
    sim.runUntil([&] { return d->respReady(); });
    EXPECT_TRUE(d->popResp().write);

    MemReq r;
    r.addr = 0x8000;
    r.tag = 2;
    d->submit(r);
    sim.runUntil([&] { return d->respReady(); });
    EXPECT_EQ(d->popResp().data, pattern(3));
}

TEST_F(DramTest, LatencyMatchesConfig)
{
    cfg.latency = 25;
    auto d = make();
    MemReq req;
    req.addr = 0;
    d->submit(req);
    const Cycle start = sim.now();
    sim.runUntil([&] { return d->respReady(); });
    // The request issues in the tick following submission; the response
    // becomes visible exactly `latency` cycles after that.
    EXPECT_EQ(sim.now() - start, 25u);
}

TEST_F(DramTest, IssueIntervalThrottlesBandwidth)
{
    cfg.issue_interval = 4;
    auto d = make();
    for (int i = 0; i < 3; ++i) {
        MemReq req;
        req.addr = static_cast<Addr>(i) * line_bytes;
        req.tag = static_cast<std::uint64_t>(i);
        d->submit(req);
    }
    std::vector<Cycle> arrivals;
    while (arrivals.size() < 3) {
        sim.runUntil([&] { return d->respReady(); });
        while (d->respReady()) {
            d->popResp();
            arrivals.push_back(sim.now());
        }
    }
    EXPECT_EQ(arrivals[1] - arrivals[0], 4u);
    EXPECT_EQ(arrivals[2] - arrivals[1], 4u);
}

TEST_F(DramTest, CanAcceptReflectsQueueCapacity)
{
    cfg.max_inflight = 2;
    cfg.issue_interval = 100; // keep requests queued
    auto d = make();
    MemReq req;
    EXPECT_TRUE(d->canAccept());
    d->submit(req);
    d->submit(req);
    EXPECT_FALSE(d->canAccept());
}

TEST_F(DramTest, PeekAndPokeBypassTiming)
{
    auto d = make();
    d->pokeLine(0x1000, pattern(7));
    EXPECT_EQ(d->peekLine(0x1000), pattern(7));
    EXPECT_EQ(d->peekLine(0x1008), pattern(7)); // same line
    std::uint64_t expected = 0;
    LineData p = pattern(7);
    std::memcpy(&expected, p.data(), 8);
    EXPECT_EQ(d->peekWord(0x1000), expected);
}

TEST_F(DramTest, ChangeLogMarksOnlyNewSlotsAndNewBytes)
{
    auto d = make();
    // A new slot is a change even when its bytes are zero.
    d->pokeLine(0x1000, LineData{});
    EXPECT_TRUE(d->changes().marked(0));
    d->clearChanges();
    // The bytes the slot already holds change nothing; new bytes do.
    d->pokeLine(0x1000, LineData{});
    EXPECT_TRUE(d->changes().slots().empty());
    d->pokeLine(0x1000, pattern(1));
    EXPECT_TRUE(d->changes().marked(0));
}

TEST_F(DramTest, StatsCountReadsAndWrites)
{
    auto d = make();
    MemReq r;
    d->submit(r);
    MemReq w;
    w.write = true;
    d->submit(w);
    EXPECT_EQ(stats.get("dram.reads"), 1u);
    EXPECT_EQ(stats.get("dram.writes"), 1u);
}

} // namespace
} // namespace skipit
