/**
 * @file
 * Hart-level tests: RDCYCLE-style markers, program switching, and
 * dispatch behaviour.
 */

#include <gtest/gtest.h>

#include "core/asm.hh"
#include "soc/soc.hh"

namespace skipit {
namespace {

TEST(HartMarkers, MarkersBracketTheMeasuredSection)
{
    SoCConfig cfg;
    cfg.cores = 1;
    SoC soc(cfg);
    // Warm the line so only the flush round trip is measured.
    soc.hart(0).setProgram({MemOp::store(0x1000, 1), MemOp::fence()});
    soc.runToQuiescence();

    soc.hart(0).setProgram({
        MemOp::marker(1),
        MemOp::flush(0x1000),
        MemOp::fence(),
        MemOp::marker(2),
    });
    soc.runToCompletion();
    const Cycle start = soc.hart(0).markerCycle(1);
    const Cycle end = soc.hart(0).markerCycle(2);
    EXPECT_GT(end, start);
    // A single warmed flush+fence is ~105 cycles (Fig 9 headline).
    EXPECT_GT(end - start, 60u);
    EXPECT_LT(end - start, 250u);
}

TEST(HartMarkers, MarkerWaitsForOlderOperations)
{
    SoCConfig cfg;
    cfg.cores = 1;
    SoC soc(cfg);
    soc.hart(0).setProgram({
        MemOp::marker(1),
        MemOp::load(0x50000), // cold miss, ~100 cycles
        MemOp::marker(2),
    });
    soc.runToCompletion();
    const Cycle delta = soc.hart(0).markerCycle(2) -
                        soc.hart(0).markerCycle(1);
    EXPECT_GT(delta, 50u) << "marker did not wait for the miss";
}

TEST(HartMarkers, AssemblerSupportsRdcycle)
{
    SoCConfig cfg;
    cfg.cores = 1;
    SoC soc(cfg);
    soc.hart(0).setProgram(assembleProgram(R"(
        rdcycle 10
        store 0x2000 5
        cbo.flush 0x2000
        fence
        rdcycle 20
    )"));
    soc.runToCompletion();
    EXPECT_GT(soc.hart(0).markerCycle(20), soc.hart(0).markerCycle(10));
}

TEST(HartMarkers, RepeatedIdKeepsItsLastCycle)
{
    SoCConfig cfg;
    cfg.cores = 1;
    SoC soc(cfg);
    soc.hart(0).setProgram({
        MemOp::marker(5),
        MemOp::marker(1),
        MemOp::compute(100),
        MemOp::marker(5),
        MemOp::marker(3),
    });
    soc.runToCompletion();
    EXPECT_LT(soc.hart(0).markerCycle(1), 100u);
    EXPECT_GE(soc.hart(0).markerCycle(5), 100u);
    EXPECT_EQ(soc.hart(0).markerCycle(5), soc.hart(0).markerCycle(3));
}

TEST(HartMarkers, SetProgramClearsOldMarkers)
{
    SoCConfig cfg;
    cfg.cores = 1;
    SoC soc(cfg);
    soc.hart(0).setProgram({MemOp::marker(1)});
    soc.runToCompletion();
    soc.hart(0).setProgram({MemOp::marker(2)});
    soc.runToCompletion();
    EXPECT_NO_FATAL_FAILURE(soc.hart(0).markerCycle(2));
}

TEST(HartDispatch, DoneRequiresEverythingRetired)
{
    SoCConfig cfg;
    cfg.cores = 1;
    SoC soc(cfg);
    soc.hart(0).setProgram({
        MemOp::load(0x90000), // long miss
        MemOp::marker(7),
    });
    // After a few cycles the program counter is done but the marker is
    // still waiting on the load: done() must be false.
    soc.sim().run(5);
    EXPECT_FALSE(soc.hart(0).done());
    soc.runToCompletion();
    EXPECT_TRUE(soc.hart(0).done());
}

TEST(HartWaitUntil, GatesDispatchUntilTheAbsoluteCycle)
{
    SoCConfig cfg;
    cfg.cores = 1;
    SoC soc(cfg);
    soc.hart(0).setProgram({
        MemOp::waitUntil(500),
        MemOp::marker(1),
    });
    soc.runToCompletion();
    EXPECT_GE(soc.hart(0).markerCycle(1), 500u);
    EXPECT_LT(soc.hart(0).markerCycle(1), 520u);
}

TEST(HartWaitUntil, PastDeadlineDispatchesImmediately)
{
    SoCConfig cfg;
    cfg.cores = 1;
    SoC soc(cfg);
    // The open-loop contract: an arrival gate in the past never stalls
    // (the wait is to an absolute cycle, not a relative delay).
    soc.hart(0).setProgram({
        MemOp::compute(200),
        MemOp::waitUntil(50),
        MemOp::marker(1),
    });
    soc.runToCompletion();
    EXPECT_GE(soc.hart(0).markerCycle(1), 200u);
    EXPECT_LT(soc.hart(0).markerCycle(1), 230u);
}

TEST(HartWaitUntil, SuccessiveGatesPaceAnOpenLoopProgram)
{
    SoCConfig cfg;
    cfg.cores = 1;
    SoC soc(cfg);
    soc.hart(0).setProgram({
        MemOp::waitUntil(100), MemOp::marker(1),
        MemOp::waitUntil(300), MemOp::marker(2),
        MemOp::waitUntil(600), MemOp::marker(3),
    });
    soc.runToCompletion();
    EXPECT_GE(soc.hart(0).markerCycle(1), 100u);
    EXPECT_GE(soc.hart(0).markerCycle(2), 300u);
    EXPECT_GE(soc.hart(0).markerCycle(3), 600u);
}

TEST(HartLoadValue, EachProgramHasItsOwnLoadTable)
{
    SoCConfig cfg;
    cfg.cores = 1;
    SoC soc(cfg);
    soc.hart(0).setProgram({
        MemOp::store(0x1000, 11),
        MemOp::fence(),
        MemOp::load(0x1000),
    });
    soc.runToCompletion();
    EXPECT_EQ(soc.hart(0).loadValue(2), 11u);

    // LSU tickets keep counting; the op indices start again at 0.
    soc.hart(0).setProgram({
        MemOp::load(0x1000),
        MemOp::store(0x1000, 22),
        MemOp::fence(),
        MemOp::load(0x1000),
    });
    soc.runToCompletion();
    EXPECT_EQ(soc.hart(0).loadValue(0), 11u);
    EXPECT_EQ(soc.hart(0).loadValue(3), 22u);
}

TEST(HartLoadValueDeathTest, OpThatIsNotALoadIsRejected)
{
    SoCConfig cfg;
    cfg.cores = 1;
    SoC soc(cfg);
    soc.hart(0).setProgram({MemOp::store(0x1000, 1), MemOp::load(0x1000)});
    soc.runToCompletion();
    EXPECT_DEATH(soc.hart(0).loadValue(0), "op 0 is not a dispatched load");
    EXPECT_DEATH(soc.hart(0).loadValue(2), "op 2 is not a dispatched load");
}

TEST(HartLoadValueDeathTest, IncompleteLoadIsRejected)
{
    SoCConfig cfg;
    cfg.cores = 1;
    SoC soc(cfg);
    soc.hart(0).setProgram({MemOp::load(0x90000)}); // long miss
    soc.sim().run(5);
    ASSERT_FALSE(soc.hart(0).done());
    EXPECT_DEATH(soc.hart(0).loadValue(0), "unknown or incomplete load");
}

} // namespace
} // namespace skipit
