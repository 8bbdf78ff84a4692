/**
 * @file
 * Address-interleaved L2 slice tests: slice-indexed SoC accessors,
 * multi-slice end-to-end runs under the invariant checker, the misroute
 * negative control that proves the checker's slice-routing invariant
 * actually fires, and scale-out runs of up to 64 harts.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "soc/soc.hh"
#include "workloads/workloads.hh"

namespace skipit {
namespace {

TEST(SlicedL2, SliceIndexedAccessorsAndGeometry)
{
    SoCConfig cfg;
    cfg.cores = 2;
    cfg.l2.slices = 4;
    SoC soc(cfg);
    EXPECT_EQ(soc.l2Slices(), 4u);
    EXPECT_EQ(soc.link(0).a.homes().slices, 4u);
    EXPECT_EQ(sliceBits(soc.link(0).a.homes().slices), 2u);
    // The zero-arg accessor stays usable and aliases slice 0.
    EXPECT_EQ(&soc.l2(), &soc.l2(0));
    for (unsigned s = 0; s < 4; ++s) {
        EXPECT_EQ(soc.l2(s).sliceIndex(), s);
        EXPECT_EQ(soc.l2(s).sliceCount(), 4u);
        // Each slice owns 1/4 of the sets; tags stay full-width.
        EXPECT_EQ(soc.l2(s).directory().sets(), cfg.l2.sets / 4);
        // The slice homes exactly the lines whose slice bits match.
        EXPECT_TRUE(soc.l2(s).homesLine(Addr(s) * line_bytes));
        EXPECT_FALSE(
            soc.l2(s).homesLine(Addr(s + 1) * line_bytes));
    }
}

TEST(SlicedL2, DescribePrintsTopology)
{
    SoCConfig cfg;
    EXPECT_NE(cfg.describe().find("topology: 1 address-interleaved slice\n"),
              std::string::npos);
    cfg.l2.slices = 4;
    EXPECT_NE(cfg.describe().find("topology: 4 address-interleaved slices"),
              std::string::npos);
}

TEST(SlicedL2, MultiSliceRunIsCoherentWithCheckerFatal)
{
    // Dirty lines striping across all four slices from two cores, then
    // write everything back; the checker panics on any violation.
    for (const bool flush : {false, true}) {
        SoCConfig cfg;
        cfg.cores = 2;
        cfg.l2.slices = 4;
        const Cycle cycles =
            workloads::cboLatency(cfg, cfg.cores, 4096, flush);
        EXPECT_GT(cycles, 0u);
    }
}

TEST(SlicedL2, CrossSliceFenceFlushEpoch)
{
    // One flush epoch spanning slices: a single core dirties 16
    // consecutive lines (4 per slice) and issues CBO.FLUSH on each plus
    // one fence. The fence's flush counter must drain to zero even
    // though the RootReleases fan out to four different slices, and
    // every line must land invalidated with its bytes in DRAM.
    SoCConfig cfg;
    cfg.l2.slices = 4;
    cfg.cores = 1;
    SoC soc(cfg);
    constexpr unsigned lines = 16;
    constexpr Addr base = 0x10000;
    Program p;
    for (unsigned i = 0; i < lines; ++i)
        p.push_back(MemOp::store(base + i * line_bytes, 0xA0 + i));
    for (unsigned i = 0; i < lines; ++i)
        p.push_back(MemOp::flush(base + i * line_bytes));
    p.push_back(MemOp::fence());
    soc.setPrograms({p});
    soc.runToQuiescence();
    for (unsigned i = 0; i < lines; ++i) {
        const Addr a = base + i * line_bytes;
        EXPECT_EQ(soc.dram().peekWord(a), 0xA0 + i) << "line " << i;
        EXPECT_FALSE(soc.l2(sliceOfLine(a, 4)).isResident(a))
            << "line " << i;
    }
    EXPECT_EQ(soc.checker().checkNow(), 0u);
}

TEST(SlicedL2, MisrouteNegativeControlTripsSliceRoutingInvariant)
{
    // Deliver one A-channel Acquire to the wrong slice; the latching
    // checker must catch it and name the violated invariant.
    SoCConfig cfg;
    cfg.cores = 2;
    cfg.l2.slices = 2;
    cfg.verify.fatal = false;
    SoC soc(cfg);
    soc.link(0).a.injectMisroute();
    Program p;
    p.push_back(MemOp::store(0x4000, 1)); // homes to slice 0
    p.push_back(MemOp::store(0x4040, 2)); // homes to slice 1
    soc.setPrograms({p, p});
    soc.runToCompletion(200'000);
    ASSERT_FALSE(soc.checker().clean());
    EXPECT_EQ(soc.checker().violations().front().invariant,
              "slice-routing");
}

/** The first line of hart @p core's private region. */
Addr
privateBase(unsigned core)
{
    return 0x10000000 + static_cast<Addr>(core) * 0x100000;
}

/**
 * Each hart dirties two private lines and flushes them twice, fenced,
 * then stores to and flushes shared lines that every hart contends for.
 */
Program
scaleOutProgram(unsigned core)
{
    constexpr unsigned lines = 2;
    const Addr priv = privateBase(core);
    constexpr Addr shared = 0x30000000;
    Program p;
    for (unsigned i = 0; i < lines; ++i)
        p.push_back(MemOp::store(priv + i * line_bytes, core + 1));
    for (unsigned pass = 0; pass < 2; ++pass) {
        for (unsigned i = 0; i < lines; ++i)
            p.push_back(MemOp::flush(priv + i * line_bytes));
        p.push_back(MemOp::fence());
    }
    for (unsigned i = 0; i < lines / 2 + 1; ++i) {
        p.push_back(MemOp::store(shared + i * line_bytes, core + 1));
        p.push_back(MemOp::flush(shared + i * line_bytes));
    }
    p.push_back(MemOp::fence());
    return p;
}

TEST(SoCScaleOut, NHartRunsToQuiescence)
{
    // SoCConfig generalizes to 64 harts: every hart runs its own
    // program, every private region lands in DRAM, and the directory
    // tracks holders past the 32-hart bitmask boundary.
    for (const unsigned cores : {2u, 4u, 16u, 32u, 64u}) {
        SoCConfig cfg;
        cfg.cores = cores;
        cfg.l2.slices = cores >= 16 ? 4 : 1;
        SoC soc(cfg);
        std::vector<Program> programs;
        for (unsigned c = 0; c < cores; ++c)
            programs.push_back(scaleOutProgram(c));
        soc.setPrograms(programs);
        EXPECT_GT(soc.runToQuiescence(), 0u) << cores;
        for (unsigned c = 0; c < cores; ++c) {
            EXPECT_EQ(soc.dram().peekWord(privateBase(c)), c + 1)
                << "cores=" << cores << " hart " << c;
        }
        EXPECT_TRUE(soc.checker().clean()) << cores;
    }
}

} // namespace
} // namespace skipit
