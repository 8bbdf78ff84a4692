/**
 * @file
 * Quiescence fast-forward equivalence: a fast-forwarded run must be
 * bit-identical to the ticked baseline — same final cycle, same stats,
 * same probe-event timestamps — on CBO-heavy workloads, while actually
 * skipping a significant share of the cycles. Fast-forward also ticks
 * each component only in the cycles its wake calendar entry is due, so
 * the many-hart, jittered and open-loop rows are where the input edges
 * that re-arm those entries fire.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>

#include "core/asm.hh"
#include "sim/txn_tracer.hh"
#include "soc/soc.hh"
#include "workloads/fuzz.hh"
#include "workloads/workloads.hh"
#include "workloads/ycsb.hh"

using namespace skipit;

namespace {

/** Outcome of one run: everything an observer could compare. */
struct RunRecord
{
    Cycle elapsed = 0;
    Cycle skipped = 0;
    std::string stats;
    std::vector<probe::Event> events;
};

/** Build @p cfg's machine, let @p load give it work, run it to
 *  quiescence and record the outcome. */
RunRecord
runMachine(SoCConfig cfg, bool fast_forward,
           const std::function<void(SoC &)> &load)
{
    cfg.fast_forward = fast_forward;
    SoC soc(cfg);
    TxnTracer tracer;
    soc.sim().probes().attach(tracer);
    load(soc);

    RunRecord rec;
    rec.elapsed = soc.runToQuiescence();
    rec.skipped = soc.sim().skippedCycles();
    std::ostringstream os;
    soc.stats().dump(os);
    rec.stats = os.str();
    rec.events = tracer.events();
    return rec;
}

RunRecord
runPrograms(const std::vector<Program> &programs, bool fast_forward,
            SoCConfig cfg = {})
{
    cfg.cores = static_cast<unsigned>(programs.size());
    return runMachine(cfg, fast_forward,
                      [&](SoC &soc) { soc.setPrograms(programs); });
}

void
expectIdentical(const RunRecord &base, const RunRecord &ff)
{
    EXPECT_EQ(base.elapsed, ff.elapsed);
    EXPECT_EQ(base.stats, ff.stats);
    ASSERT_EQ(base.events.size(), ff.events.size());
    for (std::size_t i = 0; i < base.events.size(); ++i) {
        const probe::Event &a = base.events[i];
        const probe::Event &b = ff.events[i];
        EXPECT_EQ(a.cycle, b.cycle) << "event " << i;
        EXPECT_EQ(a.dur, b.dur) << "event " << i;
        EXPECT_EQ(a.txn, b.txn) << "event " << i;
        EXPECT_EQ(a.kind, b.kind) << "event " << i;
        EXPECT_STREQ(a.stage, b.stage) << "event " << i;
        EXPECT_EQ(a.track, b.track) << "event " << i;
        EXPECT_EQ(a.detail, b.detail) << "event " << i;
    }
}

Program
cboHeavyProgram(Addr base, unsigned lines, bool flush)
{
    std::ostringstream text;
    for (unsigned i = 0; i < lines; ++i) {
        text << "store 0x" << std::hex << base + i * line_bytes
             << " 1\n";
    }
    // Real writebacks, a fence, then redundant passes that Skip It and
    // coalescing interact with.
    for (unsigned pass = 0; pass < 3; ++pass) {
        for (unsigned i = 0; i < lines; ++i) {
            text << (flush ? "cbo.flush 0x" : "cbo.clean 0x") << std::hex
                 << base + i * line_bytes << "\n";
        }
        text << "fence\n";
    }
    return assembleProgram(text.str());
}

} // namespace

TEST(FastForward, SingleCoreCboRunIsBitIdentical)
{
    const std::vector<Program> progs{
        cboHeavyProgram(0x10000000, 32, true)};
    const RunRecord base = runPrograms(progs, false);
    const RunRecord ff = runPrograms(progs, true);

    EXPECT_EQ(base.skipped, 0u);
    EXPECT_GT(ff.skipped, 0u);
    expectIdentical(base, ff);
}

TEST(FastForward, CleanVariantIsBitIdentical)
{
    const std::vector<Program> progs{
        cboHeavyProgram(0x10000000, 16, false)};
    expectIdentical(runPrograms(progs, false), runPrograms(progs, true));
}

TEST(FastForward, DualCoreSharedLineContentionIsBitIdentical)
{
    // Both cores hammer the same lines: probes, RootReleases and grant
    // races all in flight — the hardest case for wake bookkeeping.
    const std::vector<Program> progs{
        cboHeavyProgram(0x10000000, 8, true),
        cboHeavyProgram(0x10000000, 8, true)};
    const RunRecord base = runPrograms(progs, false);
    const RunRecord ff = runPrograms(progs, true);
    EXPECT_GT(ff.skipped, 0u);
    expectIdentical(base, ff);
}

TEST(FastForward, DisjointDualCoreRunIsBitIdentical)
{
    const std::vector<Program> progs{
        cboHeavyProgram(0x10000000, 16, true),
        cboHeavyProgram(0x20000000, 16, false)};
    expectIdentical(runPrograms(progs, false), runPrograms(progs, true));
}

TEST(FastForward, SkipItDisabledConfigIsBitIdentical)
{
    SoCConfig cfg;
    cfg.withSkipIt(false);
    const std::vector<Program> progs{
        cboHeavyProgram(0x10000000, 16, true)};
    expectIdentical(runPrograms(progs, false, cfg),
                    runPrograms(progs, true, cfg));
}

TEST(FastForward, SixteenHartFourSliceStormIsBitIdentical)
{
    // Loads, stores, CBOs and fences from 16 harts routed into four
    // slices: link arrivals wake the slices, and every slice wakes on
    // each DRAM response.
    workloads::FuzzSpec spec;
    spec.machine.cores = 16;
    spec.machine.l2.slices = 4;
    spec.lines = 32;
    spec.ops = 100;
    spec.jitter = false;
    const SoCConfig cfg = workloads::fuzzConfig(spec, 5);
    const std::vector<Program> programs =
        workloads::generateFuzzPrograms(spec, 5);
    const auto load = [&](SoC &soc) { soc.setPrograms(programs); };
    const RunRecord ff = runMachine(cfg, true, load);
    EXPECT_GT(ff.events.size(), 10000u);
    // Pinned, so a change in which cycles execute fails here too.
    EXPECT_EQ(ff.elapsed, 4094u);
    EXPECT_EQ(ff.skipped, 61u);
    expectIdentical(runMachine(cfg, false, load), ff);
}

TEST(FastForward, JitteredFourHartRunIsBitIdentical)
{
    // ChannelJitter delays and bursts every TileLink send, so each
    // channel wakes its receiver at a jittered arrival.
    workloads::FuzzSpec spec;
    spec.machine.cores = 4;
    spec.lines = 8;
    spec.jitter = true;
    const SoCConfig cfg = workloads::fuzzConfig(spec, 11);
    ASSERT_TRUE(cfg.jitter.enabled);
    const std::vector<Program> programs =
        workloads::generateFuzzPrograms(spec, 11);
    const auto load = [&](SoC &soc) { soc.setPrograms(programs); };
    const RunRecord ff = runMachine(cfg, true, load);
    EXPECT_GT(ff.skipped, 0u);
    expectIdentical(runMachine(cfg, false, load), ff);
}

TEST(FastForward, OpenLoopKvServeIsBitIdentical)
{
    // Each request waits at its WaitUntil arrival gate; fenced CBO.CLEAN
    // commits and checkpoint re-cleans wake the fences as the flush
    // counter drains.
    workloads::KvSpec spec;
    spec.cores = 2;
    spec.keys = 256;
    spec.ops = 96;
    spec.arrival_period = 600;
    const SoCConfig cfg = workloads::kvMachineConfig(spec);
    const auto load = [&](SoC &soc) { workloads::loadKvServe(spec, soc); };
    const RunRecord ff = runMachine(cfg, true, load);
    EXPECT_GT(ff.skipped, ff.elapsed / 4);
    expectIdentical(runMachine(cfg, false, load), ff);
}

TEST(FastForward, WorkBetweenRunsIsSeen)
{
    // New programs, hand-driven step()s and short run()s between runs:
    // each run() and runUntil() must re-derive every cached wake before
    // it skips anything. Hart 1 finishes its first program long before
    // hart 0, so its wake was last seen as wake_never.
    SoCConfig cfg;
    cfg.cores = 2;
    const std::vector<Program> first{cboHeavyProgram(0x10000000, 8, true),
                                     cboHeavyProgram(0x20000000, 1, false)};
    const std::vector<Program> second{cboHeavyProgram(0x20000000, 8, true),
                                      cboHeavyProgram(0x10000000, 8, true)};
    const auto load = [&](SoC &soc) {
        soc.setPrograms(first);
        soc.runToQuiescence();
        soc.setPrograms(second);
        soc.sim().run(50);
        for (int round = 0; round < 20; ++round) {
            for (int i = 0; i < 7; ++i)
                soc.sim().step();
            soc.sim().run(13);
        }
    };
    expectIdentical(runMachine(cfg, false, load),
                    runMachine(cfg, true, load));

    SoC soc(cfg);
    soc.sim().auditWakes();
    load(soc);
    soc.runToQuiescence();
    EXPECT_EQ(soc.sim().wakeAudit(), "");
}

TEST(FastForward, WorkloadLatencyMeasurementsAreBitIdentical)
{
    for (const bool flush : {false, true}) {
        SoCConfig off;
        off.fast_forward = false;
        SoCConfig on;
        on.fast_forward = true;
        EXPECT_EQ(workloads::cboLatency(off, 2, 4096, flush),
                  workloads::cboLatency(on, 2, 4096, flush));
        EXPECT_EQ(workloads::redundantWbLatency(off, 1, 2048, flush),
                  workloads::redundantWbLatency(on, 1, 2048, flush));
        EXPECT_EQ(workloads::writeWbReadLatency(off, 1, 1024, flush),
                  workloads::writeWbReadLatency(on, 1, 1024, flush));
    }
}

TEST(FastForward, RawSimulatorDefaultsOff)
{
    Simulator sim;
    EXPECT_FALSE(sim.fastForward());
    sim.run(100);
    EXPECT_EQ(sim.now(), 100u);
    EXPECT_EQ(sim.skippedCycles(), 0u);
}

namespace {

/** A component that acts every @p period cycles and goes idle after
 *  @p rounds actions. */
class PeriodicTicked : public Ticked
{
  public:
    PeriodicTicked(Simulator &sim, Cycle period, unsigned rounds)
        : Ticked("periodic"), sim_(sim), period_(period), rounds_(rounds)
    {
    }

    void
    tick() override
    {
        ++ticks_seen;
        if (rounds_ == 0 || sim_.now() < next_)
            return;
        ++actions;
        action_cycles.push_back(sim_.now());
        next_ = sim_.now() + period_;
        --rounds_;
    }

    Cycle
    nextWake() const override
    {
        if (rounds_ == 0)
            return wake_never;
        return std::max(sim_.now(), next_);
    }

    unsigned ticks_seen = 0;
    unsigned actions = 0;
    std::vector<Cycle> action_cycles;

  private:
    Simulator &sim_;
    Cycle period_;
    Cycle next_ = 0;
    unsigned rounds_;
};

} // namespace

TEST(FastForward, SkipsIdleStretchesAndPreservesActionTiming)
{
    Simulator ticked;
    PeriodicTicked a(ticked, 10, 5);
    ticked.add(a);
    ticked.run(100);

    Simulator ff;
    PeriodicTicked b(ff, 10, 5);
    ff.add(b);
    ff.setFastForward(true);
    ff.run(100);

    EXPECT_EQ(ticked.now(), ff.now());
    EXPECT_EQ(a.action_cycles, b.action_cycles);
    EXPECT_EQ(a.ticks_seen, 100u);
    // Five actions at cycles 0,10,..,40, then idle: only the action
    // cycles are ticked.
    EXPECT_EQ(b.ticks_seen, 5u);
    EXPECT_EQ(ff.skippedCycles(), 95u);
    EXPECT_TRUE(ff.quiescent());
}

TEST(FastForward, RunUntilStopsAtSameCycle)
{
    Simulator ticked;
    PeriodicTicked a(ticked, 7, 4);
    ticked.add(a);
    const Cycle t1 = ticked.runUntil([&] { return a.actions == 3; });

    Simulator ff;
    PeriodicTicked b(ff, 7, 4);
    ff.add(b);
    ff.setFastForward(true);
    const Cycle t2 = ff.runUntil([&] { return b.actions == 3; });

    EXPECT_EQ(t1, t2);
}

TEST(FastForward, StepIgnoresFastForward)
{
    Simulator sim;
    PeriodicTicked p(sim, 10, 1);
    sim.add(p);
    sim.setFastForward(true);
    sim.step();
    sim.step();
    EXPECT_EQ(sim.now(), 2u);
    EXPECT_EQ(p.ticks_seen, 2u);
    EXPECT_EQ(sim.skippedCycles(), 0u);
}
