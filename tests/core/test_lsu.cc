/**
 * @file
 * Unit tests of the LSU's ordering rules (§3.2, §5.1): in-order STQ
 * firing, out-of-order loads, store-to-load forwarding, fence gating on
 * the flush counter, and nack-retry behaviour — plus executed-cycle pins
 * that hold the LSU's wake and fire schedule to its exact cycle count.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/hart.hh"
#include "sim/random.hh"
#include "soc/soc.hh"
#include "workloads/workloads.hh"

namespace skipit {
namespace {

class LsuTest : public ::testing::Test
{
  protected:
    SoCConfig cfg{};

    std::unique_ptr<SoC> make()
    {
        cfg.cores = 1;
        return std::make_unique<SoC>(cfg);
    }
};

TEST_F(LsuTest, StoreToLoadForwardingReturnsStoreData)
{
    auto soc = make();
    soc->hart(0).setProgram({
        MemOp::store(0x1000, 55),
        MemOp::load(0x1000),
    });
    soc->runToCompletion();
    EXPECT_EQ(soc->hart(0).loadValue(1), 55u);
    EXPECT_GE(soc->stats().get("core0.lsu.stl_forwards"), 1u);
}

TEST_F(LsuTest, LoadsPassIndependentStores)
{
    auto soc = make();
    // Warm the load's line; then a store-miss to another line followed by
    // a load must not delay the load to a miss latency (OOO firing).
    soc->hart(0).setProgram({MemOp::load(0x2040), MemOp::fence()});
    soc->runToQuiescence();

    soc->hart(0).setProgram({
        MemOp::store(0x99000, 1), // cold: misses all the way to DRAM
        MemOp::load(0x2040),      // warm: must complete quickly
    });
    const Cycle t = soc->runToCompletion();
    // If the load waited for the store's miss this would exceed the DRAM
    // latency; out-of-order firing keeps the pair under it. The store
    // itself completes at MSHR acceptance, so total stays small.
    EXPECT_LT(t, cfg.dram.latency);
}

TEST_F(LsuTest, LoadsDoNotPassFences)
{
    auto soc = make();
    soc->hart(0).setProgram({MemOp::load(0x3000), MemOp::fence()});
    soc->runToQuiescence();

    // store (dirty) -> flush -> fence -> load: the load must observe the
    // post-flush world, i.e. it may only fire after the writeback
    // completed, pushing total latency past the flush round trip.
    soc->hart(0).setProgram({
        MemOp::store(0x3000, 2),
        MemOp::flush(0x3000),
        MemOp::fence(),
        MemOp::load(0x3000),
    });
    const Cycle t = soc->runToCompletion();
    EXPECT_GT(t, 100u); // flush round trip is ~112 cycles
    EXPECT_EQ(soc->hart(0).loadValue(3), 2u);
}

TEST_F(LsuTest, FenceWaitsForFlushCounter)
{
    auto soc = make();
    Program p;
    for (int i = 0; i < 8; ++i)
        p.push_back(MemOp::store(0x4000 + i * line_bytes, i));
    for (int i = 0; i < 8; ++i)
        p.push_back(MemOp::flush(0x4000 + i * line_bytes));
    p.push_back(MemOp::fence());
    soc->hart(0).setProgram(p);
    soc->runToCompletion();
    // When the fence completed, no flush may still be pending.
    EXPECT_FALSE(soc->l1(0).flushing());
    EXPECT_GE(soc->stats().get("core0.lsu.fences"), 1u);
}

TEST_F(LsuTest, StqFiresInProgramOrder)
{
    auto soc = make();
    // Two stores to the same word: the second must win.
    soc->hart(0).setProgram({
        MemOp::store(0x5000, 1),
        MemOp::store(0x5000, 2),
        MemOp::store(0x5000, 3),
        MemOp::flush(0x5000),
        MemOp::fence(),
    });
    soc->runToCompletion();
    EXPECT_EQ(soc->dram().peekWord(0x5000), 3u);
}

TEST_F(LsuTest, NackedOperationsRetryUntilSuccess)
{
    cfg.l1.flush_queue_depth = 1;
    cfg.l1.fshrs = 1;
    auto soc = make();
    // Far more concurrent flushes than the single FSHR + queue slot can
    // hold: the LSU must absorb the nacks and retry until all complete.
    Program p;
    for (int i = 0; i < 12; ++i)
        p.push_back(MemOp::store(0x6000 + i * line_bytes, i + 1));
    for (int i = 0; i < 12; ++i)
        p.push_back(MemOp::flush(0x6000 + i * line_bytes));
    p.push_back(MemOp::fence());
    soc->hart(0).setProgram(p);
    soc->runToCompletion();
    EXPECT_GE(soc->stats().get("core0.lsu.retries"), 1u);
    for (int i = 0; i < 12; ++i)
        EXPECT_EQ(soc->dram().peekWord(0x6000 + i * line_bytes),
                  static_cast<std::uint64_t>(i + 1));
}

TEST_F(LsuTest, WindowBackpressuresDispatch)
{
    cfg.lsu.window = 4;
    auto soc = make();
    Program p;
    for (int i = 0; i < 64; ++i)
        p.push_back(MemOp::store(0x7000 + i * line_bytes, i));
    p.push_back(MemOp::fence());
    soc->hart(0).setProgram(p);
    soc->runToCompletion(); // must still complete with a tiny window
    EXPECT_TRUE(soc->lsu(0).empty());
}

TEST_F(LsuTest, DelayOpStallsDispatch)
{
    auto soc = make();
    soc->hart(0).setProgram({
        MemOp::compute(500),
        MemOp::load(0x8000),
    });
    const Cycle t = soc->runToCompletion();
    EXPECT_GE(t, 500u);
}

TEST_F(LsuTest, PartialOverlapStoreBlocksLoadUntilDone)
{
    auto soc = make();
    // A 4-byte store overlapping an 8-byte load cannot forward; the load
    // must wait and then read the merged bytes from the cache.
    soc->hart(0).setProgram({
        MemOp::store(0x9000, 0x11223344, 4),
        MemOp::load(0x9000, 8),
    });
    soc->runToCompletion();
    EXPECT_EQ(soc->hart(0).loadValue(1) & 0xFFFFFFFFu, 0x11223344u);
}

TEST_F(LsuTest, FullWindowRetiresInOneTick)
{
    cfg.lsu.window = 64;
    auto soc = make();
    Stats &st = soc->stats();
    soc->hart(0).setProgram({MemOp::store(0xA000, 7), MemOp::fence()});
    soc->runToQuiescence(); // 0xA000 is now dirty in the L1

    // The flush keeps the flushing signal high for a writeback round trip,
    // long enough for the hart to fill all 64 entries with fences.
    Program p{MemOp::flush(0xA000)};
    for (int i = 0; i < 64; ++i)
        p.push_back(MemOp::fence());
    soc->hart(0).setProgram(p);
    const std::uint64_t fences = st.get("core0.lsu.fences");
    soc->sim().runUntil([&] { return st.get("core0.lsu.fences") > fences; });
    // All 64 released in one fire() pass and retired in the same tick.
    EXPECT_EQ(st.get("core0.lsu.fences") - fences, 64u);
    EXPECT_TRUE(soc->lsu(0).empty());

    // The retire must leave no stale entry state behind: an exact-word
    // store/load pair still forwards ...
    const std::uint64_t forwards = st.get("core0.lsu.stl_forwards");
    soc->hart(0).setProgram({MemOp::store(0xB000, 41), MemOp::load(0xB000)});
    soc->runToCompletion();
    EXPECT_EQ(soc->hart(0).loadValue(1), 41u);
    EXPECT_EQ(st.get("core0.lsu.stl_forwards"), forwards + 1);

    // ... and a partial overlap still holds the load until the store is
    // done, so the load reads the store's bytes from the cache.
    soc->hart(0).setProgram({
        MemOp::store(0xC000, 0x55667788, 4),
        MemOp::load(0xC000, 8),
    });
    soc->runToCompletion();
    EXPECT_EQ(soc->hart(0).loadValue(1), 0x55667788u);
    EXPECT_EQ(st.get("core0.lsu.stl_forwards"), forwards + 1);
}

using LsuDeathTest = LsuTest;

TEST_F(LsuDeathTest, ZeroWindowIsRejected)
{
    cfg.lsu.window = 0;
    EXPECT_DEATH(make(), "64-bit bitset");
}

TEST_F(LsuDeathTest, WindowPastTheBitsetIsRejected)
{
    cfg.lsu.window = 65;
    EXPECT_DEATH(make(), "64-bit bitset");
}

// ---------------------------------------------------------------------
// Executed-cycle identity pins: a run's simulated cycles, fast-forward
// skipped cycles and LSU counters. A change to when an entry fires,
// forwards, releases or wakes the kernel moves at least one of them, so
// a change meant only to speed up the host must leave them as they are.
// ---------------------------------------------------------------------

/** Cycles, skipped cycles and every non-zero core*.lsu.* counter. */
std::string
outcome(SoC &soc, Cycle cycles)
{
    std::ostringstream os;
    os << "cycles=" << cycles << " skipped=" << soc.sim().skippedCycles();
    for (const auto &[name, value] : soc.stats().byPrefix("core")) {
        if (name.find(".lsu.") != std::string::npos)
            os << ' ' << name << '=' << value;
    }
    return os.str();
}

/**
 * Four harts over eight shared lines with two L1 MSHRs and a two-deep
 * flush queue, so the L1 nacks often: 8- and 4-byte loads and stores
 * (exact-word forwards and partial overlaps), CBO.CLEAN/FLUSH, fences and
 * compute delays, drawn from a fixed seed. With @p audit, the run keeps
 * the wake audit on and stores its verdict there.
 */
std::string
runNackHeavyMix(unsigned window, std::string *audit = nullptr)
{
    constexpr unsigned harts = 4;
    constexpr unsigned lines = 8;
    constexpr unsigned ops = 1000;
    constexpr Addr base = 0x200000;
    SoCConfig cfg;
    cfg.cores = harts;
    cfg.l1.mshrs = 2;
    cfg.l1.flush_queue_depth = 2;
    cfg.lsu.window = window;
    Rng rng(14);
    std::vector<Program> programs(harts);
    for (Program &p : programs) {
        for (unsigned n = 0; n < ops; ++n) {
            const Addr line = base + rng.below(lines) * line_bytes;
            const Addr word = line + rng.below(line_bytes / 8) * 8;
            const Addr half = word + rng.below(2) * 4;
            const std::uint64_t value = rng.next();
            switch (rng.below(12)) {
              case 0:
              case 1:
              case 2:
                p.push_back(MemOp::load(word));
                break;
              case 3:
                p.push_back(MemOp::load(half, 4));
                break;
              case 4:
              case 5:
                p.push_back(MemOp::store(word, value));
                break;
              case 6:
                p.push_back(MemOp::store(half, value & 0xFFFFFFFFu, 4));
                break;
              case 7:
                p.push_back(MemOp::clean(line));
                break;
              case 8:
                p.push_back(MemOp::flush(line));
                break;
              case 9:
                p.push_back(MemOp::fence());
                break;
              case 10:
                p.push_back(MemOp::compute(value % 48));
                break;
              default:
                // A store and a load of the same word: a forwarding
                // candidate unless something in between blocks it.
                p.push_back(MemOp::store(word, value));
                p.push_back(MemOp::load(word));
                break;
            }
        }
        p.push_back(MemOp::fence());
    }
    SoC soc(cfg);
    soc.setPrograms(programs);
    if (audit != nullptr)
        soc.sim().auditWakes();
    const Cycle cycles = soc.runToCompletion();
    if (audit != nullptr)
        *audit = soc.sim().wakeAudit();
    return outcome(soc, cycles);
}

constexpr const char *mix_window4 =
    "cycles=28062 skipped=1499"
    " core0.lsu.fences=80"
    " core0.lsu.retries=1792"
    " core0.lsu.stl_forwards=88"
    " core1.lsu.fences=94"
    " core1.lsu.retries=1811"
    " core1.lsu.stl_forwards=96"
    " core2.lsu.fences=91"
    " core2.lsu.retries=1952"
    " core2.lsu.stl_forwards=84"
    " core3.lsu.fences=99"
    " core3.lsu.retries=1977"
    " core3.lsu.stl_forwards=98";
constexpr const char *mix_window32 =
    "cycles=26204 skipped=838"
    " core0.lsu.fences=80"
    " core0.lsu.retries=2509"
    " core0.lsu.stl_forwards=94"
    " core1.lsu.fences=94"
    " core1.lsu.retries=2572"
    " core1.lsu.stl_forwards=99"
    " core2.lsu.fences=91"
    " core2.lsu.retries=2611"
    " core2.lsu.stl_forwards=85"
    " core3.lsu.fences=99"
    " core3.lsu.retries=2306"
    " core3.lsu.stl_forwards=106";
constexpr const char *mix_window64 =
    "cycles=26400 skipped=1033"
    " core0.lsu.fences=80"
    " core0.lsu.retries=2563"
    " core0.lsu.stl_forwards=94"
    " core1.lsu.fences=94"
    " core1.lsu.retries=2794"
    " core1.lsu.stl_forwards=100"
    " core2.lsu.fences=91"
    " core2.lsu.retries=2614"
    " core2.lsu.stl_forwards=85"
    " core3.lsu.fences=99"
    " core3.lsu.retries=2293"
    " core3.lsu.stl_forwards=106";

TEST(LsuCyclePin, ManycoreShape)
{
    // skipit-bench's wb-storm at seed 0.
    constexpr unsigned cores = 16;
    constexpr unsigned lines = 256;
    SoCConfig cfg;
    cfg.cores = cores;
    cfg.l2.slices = 4;
    cfg.verify.enabled = false;
    cfg.watchdog.enabled = false;
    SoC soc(cfg);
    std::vector<Program> programs;
    for (unsigned c = 0; c < cores; ++c) {
        const Addr region =
            workloads::region_base + c * workloads::thread_stride;
        Program p = workloads::dirtyRegion(region, lines);
        const Program wb = workloads::writebackRegion(
            region, lines, /*flush=*/true, /*passes=*/8);
        p.insert(p.end(), wb.begin(), wb.end());
        programs.push_back(std::move(p));
    }
    soc.setPrograms(programs);
    EXPECT_EQ(soc.runToCompletion(), 33545u);
    EXPECT_EQ(soc.sim().skippedCycles(), 72u);
}

TEST(LsuCyclePin, NackHeavyMixWindow4)
{
    EXPECT_EQ(runNackHeavyMix(4), mix_window4);
}

TEST(LsuCyclePin, NackHeavyMixWindow32)
{
    EXPECT_EQ(runNackHeavyMix(32), mix_window32);
}

TEST(LsuCyclePin, NackHeavyMixWindow64)
{
    EXPECT_EQ(runNackHeavyMix(64), mix_window64);
}

TEST(WakeAudit, NackHeavyMixWindow32)
{
    // Nacks, backoffs, forwards and fences: every LSU wake source.
    std::string audit = "not run";
    EXPECT_EQ(runNackHeavyMix(32, &audit), mix_window32);
    EXPECT_EQ(audit, "");
}

} // namespace
} // namespace skipit
