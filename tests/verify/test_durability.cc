/**
 * @file
 * The power-failure injection subsystem end to end:
 *
 *  - the oracle is off-path: enabling it changes no cycle count, at
 *    any slice count;
 *  - crashing at EVERY cycle of a fig9-style multi-hart CBO run passes
 *    the durability audit at cores {2,16} x slices {1,4} — the §6
 *    soundness argument holds at every power-failure point;
 *  - quiescing before the crash point audits the final image;
 *  - the negative control: injected skip-bit corruption (a line marked
 *    "already persisted" whose bytes are not) is reliably flagged.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "core/mem_op.hh"
#include "l1/data_cache.hh"
#include "soc/soc.hh"

namespace skipit {
namespace {

/** Fig 9's shape: per-hart disjoint dirty regions, a CBO sweep, a
 *  fence, then a second dirty + flush round. Region stride keeps harts
 *  in different lines (and, at slices > 1, different slices). */
std::vector<Program>
cboPrograms(unsigned harts, unsigned lines_per_hart = 2)
{
    constexpr Addr base = 0xA0000;
    std::vector<Program> programs(harts);
    for (unsigned h = 0; h < harts; ++h) {
        Program &p = programs[h];
        const Addr region =
            base + static_cast<Addr>(h) * lines_per_hart * line_bytes;
        for (unsigned l = 0; l < lines_per_hart; ++l)
            p.push_back(MemOp::store(region + l * line_bytes,
                                     0x1000 + h * 0x100 + l));
        for (unsigned l = 0; l < lines_per_hart; ++l)
            p.push_back(MemOp::clean(region + l * line_bytes));
        p.push_back(MemOp::fence());
        for (unsigned l = 0; l < lines_per_hart; ++l)
            p.push_back(MemOp::store(region + l * line_bytes,
                                     0x2000 + h * 0x100 + l));
        for (unsigned l = 0; l < lines_per_hart; ++l)
            p.push_back(MemOp::flush(region + l * line_bytes));
        p.push_back(MemOp::fence());
    }
    return programs;
}

SoCConfig
makeConfig(unsigned cores, unsigned slices)
{
    SoCConfig cfg;
    cfg.cores = cores;
    cfg.withSkipIt(true);
    cfg.l2.slices = slices;
    return cfg;
}

TEST(Durability, OracleIsCycleNeutral)
{
    for (const unsigned slices : {1u, 4u}) {
        SoCConfig off = makeConfig(2, slices);
        SoC soc_off(off);
        soc_off.setPrograms(cboPrograms(2));
        const Cycle t_off = soc_off.runToQuiescence();

        SoCConfig on = off;
        on.durability.enabled = true;
        SoC soc_on(on);
        soc_on.setPrograms(cboPrograms(2));
        const Cycle t_on = soc_on.runToQuiescence();

        EXPECT_EQ(t_off, t_on)
            << "oracle perturbed timing (slices " << slices << ")";
        EXPECT_TRUE(soc_on.durability().clean());
        EXPECT_FALSE(soc_on.durability().crashed());
    }
}

TEST(Durability, CrashAtEveryCyclePassesTheAudit)
{
    for (const unsigned cores : {2u, 16u}) {
        for (const unsigned slices : {1u, 4u}) {
            SoCConfig cfg = makeConfig(cores, slices);
            cfg.durability.enabled = true;
            cfg.durability.fatal = false;

            // One clean run establishes the natural length T.
            Cycle total = 0;
            {
                SoC soc(cfg);
                soc.setPrograms(cboPrograms(cores));
                total = soc.runToQuiescence();
                ASSERT_TRUE(soc.durability().clean());
                ASSERT_TRUE(soc.checker().clean());
            }

            for (Cycle c = 1; c <= total; ++c) {
                SoCConfig crash = cfg;
                crash.durability.crash_at = c;
                SoC soc(crash);
                soc.setPrograms(cboPrograms(cores));
                // The crash freezes at the first *executed* cycle >= c;
                // if the machine settles first (c at the very end), the
                // image can no longer change — audit it.
                soc.sim().runUntil(
                    [&] {
                        return soc.durability().crashed() || soc.quiesced();
                    },
                    total + 10'000);
                if (!soc.durability().crashed())
                    soc.durability().crashNow();
                ASSERT_TRUE(soc.durability().crashed());
                EXPECT_GE(soc.durability().crashCycle(), c);
                EXPECT_TRUE(soc.durability().clean())
                    << "crash @ cycle " << c << "/" << total
                    << " (cores " << cores << ", slices " << slices
                    << "): "
                    << soc.durability().violations().front().detail;
            }
        }
    }
}

TEST(Durability, QuiescingBeforeTheCrashPointAuditsTheFinalImage)
{
    SoCConfig cfg = makeConfig(2, 1);
    cfg.durability.enabled = true;
    cfg.durability.fatal = false;
    cfg.durability.crash_at = 1'000'000'000; // far beyond quiescence
    SoC soc(cfg);
    soc.setPrograms(cboPrograms(2));
    soc.runToQuiescence();
    EXPECT_FALSE(soc.durability().crashed());
    soc.durability().crashNow();
    EXPECT_TRUE(soc.durability().crashed());
    EXPECT_TRUE(soc.durability().clean());
    // Every flushed line of the final image holds its last store.
    const auto &image = soc.durability().image();
    for (unsigned h = 0; h < 2; ++h) {
        for (unsigned l = 0; l < 2; ++l) {
            const Addr line = 0xA0000 + (h * 2 + l) * line_bytes;
            const auto it = image.find(line);
            ASSERT_NE(it, image.end());
            std::uint64_t word = 0;
            std::memcpy(&word, it->second.data(), sizeof(word));
            EXPECT_EQ(word, 0x2000 + h * 0x100 + l);
        }
    }
    EXPECT_GE(soc.durability().summary().sealed_claims, 4u);
}

TEST(Durability, CrashOnStageTriggersAtTheEvent)
{
    SoCConfig cfg = makeConfig(2, 1);
    cfg.durability.enabled = true;
    cfg.durability.fatal = false;
    cfg.durability.crash_on_stage = "persist.fence";
    SoC soc(cfg);
    soc.setPrograms(cboPrograms(2));
    soc.sim().runUntil([&] { return soc.durability().crashed(); },
                       1'000'000);
    EXPECT_TRUE(soc.durability().crashed());
    EXPECT_TRUE(soc.durability().clean());
    EXPECT_GT(soc.durability().crashCycle(), 0u);
}

TEST(WakeAudit, CrashOnStageMachine)
{
    // The freezer and the oracle are observers: they tick in every
    // executed cycle, so the event-triggered crash still fires.
    SoCConfig cfg = makeConfig(2, 1);
    cfg.durability.enabled = true;
    cfg.durability.fatal = false;
    cfg.durability.crash_on_stage = "persist.fence";
    SoC soc(cfg);
    soc.setPrograms(cboPrograms(2));
    soc.sim().auditWakes();
    soc.sim().runUntil([&] { return soc.durability().crashed(); },
                       1'000'000);
    EXPECT_TRUE(soc.durability().crashed());
    EXPECT_EQ(soc.sim().wakeAudit(), "");
}

/** The fuzzer's shrunk repro for the stale-skip-bit bug: dirty a line,
 *  clean it twice. The second clean must not be elided off the skip bit
 *  the fill set — dirtying clears it — and when the FSHR coalesces the
 *  redundant clean, the captured data is still what lands in DRAM. */
TEST(Durability, RedundantCleanAfterDirtyingIsSound)
{
    const Addr line = 0x90140;
    SoCConfig cfg = makeConfig(1, 1);
    cfg.durability.enabled = true;
    SoC soc(cfg);
    soc.setPrograms({Program{MemOp::store(line + 0x38, 0x5117),
                             MemOp::clean(line), MemOp::clean(line),
                             MemOp::fence()}});
    soc.runToQuiescence();
    EXPECT_TRUE(soc.durability().clean());
    soc.durability().crashNow();
    EXPECT_TRUE(soc.durability().clean());
    const auto it = soc.durability().image().find(line);
    ASSERT_NE(it, soc.durability().image().end());
    std::uint64_t word = 0;
    std::memcpy(&word, it->second.data() + 0x38, sizeof(word));
    EXPECT_EQ(word, 0x5117u);
}

/** An FSHR that already captured its data must refuse to coalesce a
 *  clean issued after the line was re-dirtied: the second store's value
 *  has to reach DRAM via its own writeback, not vanish behind the stale
 *  capture. */
TEST(Durability, RecleanAfterRedirtyPersistsTheNewValue)
{
    const Addr line = 0x90140;
    SoCConfig cfg = makeConfig(1, 1);
    cfg.durability.enabled = true;
    SoC soc(cfg);
    soc.setPrograms({Program{MemOp::store(line, 1), MemOp::clean(line),
                             MemOp::store(line, 2), MemOp::clean(line),
                             MemOp::fence()}});
    soc.runToQuiescence();
    EXPECT_TRUE(soc.durability().clean());
    soc.durability().crashNow();
    EXPECT_TRUE(soc.durability().clean());
    const auto it = soc.durability().image().find(line);
    ASSERT_NE(it, soc.durability().image().end());
    std::uint64_t word = 0;
    std::memcpy(&word, it->second.data(), sizeof(word));
    EXPECT_EQ(word, 2u);
}

/** The persist-domain summary the watchdog escalation and the fuzz
 *  replay bundles print: frozen state once crashed, crash cycle named. */
TEST(Durability, ReportSummaryDescribesTheFrozenPersistDomain)
{
    SoCConfig cfg = makeConfig(2, 1);
    cfg.durability.enabled = true;
    cfg.durability.fatal = false;
    SoC soc(cfg);
    soc.setPrograms(cboPrograms(2));
    soc.runToQuiescence();

    std::ostringstream live;
    soc.durability().reportSummary(live);
    EXPECT_NE(live.str().find("(live)"), std::string::npos);

    soc.durability().crashNow();
    std::ostringstream frozen;
    soc.durability().reportSummary(frozen);
    const std::string out = frozen.str();
    EXPECT_NE(out.find("(crashed)"), std::string::npos);
    EXPECT_NE(out.find("persist domain @ cycle " +
                       std::to_string(soc.durability().crashCycle())),
              std::string::npos);
    EXPECT_NE(out.find("durable lines"), std::string::npos);
    EXPECT_NE(out.find("fence-observed durability claims"),
              std::string::npos);
}

/** The negative control: a clean L1 line whose skip bit lies. */
TEST(Durability, InjectedSkipCorruptionIsDetected)
{
    const Addr line = 0xB0000;
    for (const bool inject : {false, true}) {
        SoCConfig cfg = makeConfig(2, 1);
        cfg.durability.enabled = true;
        cfg.durability.fatal = false;
        // The coherence checker's skip-soundness sweep catches the
        // corruption too (by design); latch instead of panicking so the
        // run reaches the elision point the durability oracle audits.
        cfg.verify.fatal = false;
        SoC soc(cfg);
        // hart0 dirties the line; hart1's load pulls it over (the L2
        // copy is dirty, DRAM still stale, so hart1's L1 copy is clean
        // data the persist domain does NOT have). A skip bit on that
        // line is exactly the corruption the oracle must catch.
        Program p0{MemOp::store(line, 0x42), MemOp::fence()};
        Program p1{MemOp::compute(80), MemOp::load(line),
                   MemOp::compute(120), MemOp::clean(line),
                   MemOp::fence()};
        soc.setPrograms({p0, p1});
        soc.sim().runUntil(
            [&] {
                const L1Arrays &a = soc.l1(1).arrays();
                const int w = a.findWay(line);
                return w >= 0 &&
                       !a.meta(a.setOf(line),
                               static_cast<unsigned>(w))
                            .dirty;
            },
            100'000);
        if (inject)
            soc.l1(1).injectSkipCorruption(line);
        soc.runToQuiescence();
        if (inject) {
            ASSERT_FALSE(soc.durability().clean())
                << "injected skip-bit corruption went undetected";
            EXPECT_EQ(soc.durability().violations().front().invariant,
                      "skip-drop");
            // Defense in depth: the always-on checker flags it too.
            EXPECT_FALSE(soc.checker().clean());
        } else {
            EXPECT_TRUE(soc.durability().clean())
                << (soc.durability().violations().empty()
                        ? std::string()
                        : soc.durability().violations().front().detail);
        }
    }
}

} // namespace
} // namespace skipit
