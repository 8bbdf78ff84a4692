/**
 * @file
 * Parallel tick-engine equivalence: the parallel engine must be
 * bit-identical to the serial reference — same final cycle, same stats,
 * same probe-event stream — at any worker count, across core counts,
 * slice counts, schedule jitter, and checker settings. This is the
 * executable form of the contract in docs/PARALLELISM.md.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/asm.hh"
#include "sim/txn_tracer.hh"
#include "soc/soc.hh"
#include "workloads/workloads.hh"

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

/**
 * A per-core workload with both private traffic and cross-core
 * contention: each core dirties and writes back its own region, then
 * every core hammers a shared region — probes, RootReleases and grant
 * races all in flight.
 */
Program
scaleOutProgram(unsigned core, unsigned lines, bool flush)
{
    const Addr priv = 0x10000000 + static_cast<Addr>(core) * 0x100000;
    const Addr shared = 0x30000000;
    std::ostringstream text;
    for (unsigned i = 0; i < lines; ++i) {
        text << "store 0x" << std::hex << priv + i * line_bytes << " "
             << std::dec << core + 1 << "\n";
    }
    for (unsigned pass = 0; pass < 2; ++pass) {
        for (unsigned i = 0; i < lines; ++i) {
            text << (flush ? "cbo.flush 0x" : "cbo.clean 0x") << std::hex
                 << priv + i * line_bytes << std::dec << "\n";
        }
        text << "fence\n";
    }
    for (unsigned i = 0; i < lines / 2 + 1; ++i) {
        text << "store 0x" << std::hex << shared + i * line_bytes << " "
             << std::dec << core + 1 << "\n"
             << "cbo.flush 0x" << std::hex << shared + i * line_bytes
             << std::dec << "\n";
    }
    text << "fence\n";
    return assembleProgram(text.str());
}

SoCConfig
matrixConfig(unsigned cores, unsigned slices, Simulator::Engine engine,
             unsigned workers, bool jitter = false)
{
    SoCConfig cfg;
    cfg.cores = cores;
    cfg.l2.slices = slices;
    cfg.engine = engine;
    cfg.workers = workers;
    if (jitter) {
        cfg.jitter.enabled = true;
        cfg.jitter.seed = 0xf00dULL;
    }
    return cfg;
}

RunRecord
runMatrix(const SoCConfig &cfg, unsigned lines = 4)
{
    SoC soc(cfg);
    TxnTracer tracer;
    soc.sim().probes().attach(tracer);
    std::vector<Program> programs;
    for (unsigned c = 0; c < cfg.cores; ++c)
        programs.push_back(scaleOutProgram(c, lines, c % 2 == 0));
    soc.setPrograms(programs);

    RunRecord rec;
    rec.elapsed = soc.runToQuiescence();
    rec.skipped = soc.sim().skippedCycles();
    std::ostringstream os;
    soc.stats().dump(os);
    rec.stats = os.str();
    rec.events = tracer.events();
    return rec;
}

void
expectIdentical(const RunRecord &base, const RunRecord &par,
                const std::string &what)
{
    EXPECT_EQ(base.elapsed, par.elapsed) << what;
    EXPECT_EQ(base.skipped, par.skipped) << what;
    EXPECT_EQ(base.stats, par.stats) << what;
    ASSERT_EQ(base.events.size(), par.events.size()) << what;
    for (std::size_t i = 0; i < base.events.size(); ++i) {
        const probe::Event &a = base.events[i];
        const probe::Event &b = par.events[i];
        ASSERT_TRUE(a.cycle == b.cycle && a.dur == b.dur &&
                    a.txn == b.txn && a.kind == b.kind &&
                    std::string(a.stage) == b.stage &&
                    a.track == b.track && a.detail == b.detail)
            << what << ": event " << i << " diverges (cycle " << a.cycle
            << " vs " << b.cycle << ", track " << a.track << " vs "
            << b.track << ")";
    }
}

std::string
label(unsigned cores, unsigned slices, unsigned workers)
{
    std::ostringstream os;
    os << "cores=" << cores << " slices=" << slices
       << " workers=" << workers;
    return os.str();
}

} // namespace

TEST(ParallelEngine, BitIdenticalAcrossCoresSlicesWorkers)
{
    for (const unsigned cores : {2u, 16u}) {
        for (const unsigned slices : {1u, 4u}) {
            const RunRecord serial = runMatrix(matrixConfig(
                cores, slices, Simulator::Engine::serial, 0));
            ASSERT_FALSE(serial.events.empty());
            for (const unsigned workers : {1u, 2u, 8u}) {
                const RunRecord par = runMatrix(matrixConfig(
                    cores, slices, Simulator::Engine::parallel, workers));
                expectIdentical(serial, par,
                                label(cores, slices, workers));
            }
        }
    }
}

TEST(ParallelEngine, BitIdenticalUnderScheduleJitter)
{
    // A jittered fuzz seed perturbs every channel's timing; the engines
    // must still agree bit for bit (per-channel RNG streams are owned by
    // exactly one phase).
    for (const unsigned cores : {2u, 16u}) {
        const RunRecord serial = runMatrix(
            matrixConfig(cores, 4, Simulator::Engine::serial, 0, true));
        for (const unsigned workers : {1u, 2u, 8u}) {
            const RunRecord par = runMatrix(matrixConfig(
                cores, 4, Simulator::Engine::parallel, workers, true));
            expectIdentical(serial, par,
                            "jitter " + label(cores, 4, workers));
        }
    }
}

TEST(ParallelEngine, CheckerOnOffIsCycleIdenticalUnderParallel)
{
    // The coherence checker is observer-only; under the parallel engine
    // it still runs in the serial post phase and must not change a
    // single cycle, counter, or event.
    SoCConfig on = matrixConfig(4, 2, Simulator::Engine::parallel, 8);
    SoCConfig off = on;
    off.verify.enabled = false;
    expectIdentical(runMatrix(on), runMatrix(off), "checker on/off");
}

TEST(ParallelEngine, FastForwardOffIsBitIdenticalUnderParallel)
{
    SoCConfig ff = matrixConfig(4, 2, Simulator::Engine::parallel, 4);
    SoCConfig ticked = ff;
    ticked.fast_forward = false;
    const RunRecord a = runMatrix(ff);
    const RunRecord b = runMatrix(ticked);
    EXPECT_GT(a.skipped, 0u);
    EXPECT_EQ(b.skipped, 0u);
    EXPECT_EQ(a.elapsed, b.elapsed);
    EXPECT_EQ(a.stats, b.stats);
}

TEST(ParallelEngine, CountersExactEveryCycle)
{
    // Each component owns its counters and each lane ticks only its own
    // components, so the counters are exact after every step(): hand-step
    // both engines and compare every counter every cycle, with no sync
    // call in between.
    SoC serial(matrixConfig(16, 4, Simulator::Engine::serial, 0));
    SoC par(matrixConfig(16, 4, Simulator::Engine::parallel, 2));
    for (SoC *soc : {&serial, &par}) {
        std::vector<Program> programs;
        for (unsigned c = 0; c < soc->cores(); ++c)
            programs.push_back(scaleOutProgram(c, 2, c % 2 == 0));
        soc->setPrograms(programs);
    }
    auto quiescent = [](SoC &soc) {
        for (unsigned c = 0; c < soc.cores(); ++c) {
            if (!soc.hart(c).done() || !soc.l1(c).quiesced())
                return false;
        }
        return soc.l2Idle();
    };
    Cycle cycles = 0;
    while (!quiescent(serial)) {
        ASSERT_LT(cycles, 100'000u) << "serial run did not quiesce";
        serial.sim().step();
        par.sim().step();
        ++cycles;
        ASSERT_EQ(serial.stats().byPrefix(""), par.stats().byPrefix(""))
            << "cycle " << cycles;
    }
    EXPECT_TRUE(quiescent(par));
    EXPECT_GT(serial.stats().sumPrefix("l1."), 0u);
}

TEST(ParallelEngine, WorkloadMeasurementsMatchSerial)
{
    // The harness-level measurements (Fig 9/13 style) agree between the
    // engines at every thread count they sweep.
    SoCConfig serial;
    SoCConfig par;
    par.engine = Simulator::Engine::parallel;
    par.workers = 8;
    for (const bool flush : {false, true}) {
        EXPECT_EQ(workloads::cboLatency(serial, 2, 4096, flush),
                  workloads::cboLatency(par, 2, 4096, flush));
        EXPECT_EQ(workloads::redundantWbLatency(serial, 2, 2048, flush),
                  workloads::redundantWbLatency(par, 2, 2048, flush));
    }
}

TEST(ParallelEngine, NHartScaleOutRunsToQuiescence)
{
    // SoCConfig generalizes to 64 harts: every hart runs its own
    // program, every private region lands in DRAM, and the directory
    // tracks holders past the 32-hart bitmask boundary.
    for (const unsigned cores : {2u, 4u, 16u, 32u, 64u}) {
        SoCConfig cfg;
        cfg.cores = cores;
        cfg.l2.slices = cores >= 16 ? 4 : 1;
        cfg.engine = cores >= 16 ? Simulator::Engine::parallel
                                 : Simulator::Engine::serial;
        cfg.workers = 4;
        SoC soc(cfg);
        std::vector<Program> programs;
        for (unsigned c = 0; c < cores; ++c)
            programs.push_back(scaleOutProgram(c, 2, true));
        soc.setPrograms(programs);
        const Cycle elapsed = soc.runToQuiescence();
        EXPECT_GT(elapsed, 0u) << cores;
        for (unsigned c = 0; c < cores; ++c) {
            const Addr priv =
                0x10000000 + static_cast<Addr>(c) * 0x100000;
            EXPECT_EQ(soc.dram().peekWord(priv), c + 1)
                << "cores=" << cores << " hart " << c;
        }
        EXPECT_TRUE(soc.checker().clean()) << cores;
    }
}

namespace {

/** A raw Ticked that records its action cycles (engine-agnostic). */
class Recorder : public Ticked
{
  public:
    Recorder(Simulator &sim, Cycle period, unsigned rounds)
        : Ticked("recorder"), sim_(sim), period_(period), rounds_(rounds)
    {
    }

    void
    tick() override
    {
        if (rounds_ == 0 || sim_.now() < next_)
            return;
        action_cycles.push_back(sim_.now());
        next_ = sim_.now() + period_;
        --rounds_;
    }

    Cycle
    nextWake() const override
    {
        return rounds_ == 0 ? wake_never : std::max(sim_.now(), next_);
    }

    std::vector<Cycle> action_cycles;

  private:
    Simulator &sim_;
    Cycle period_;
    Cycle next_ = 0;
    unsigned rounds_;
};

} // namespace

TEST(ParallelEngine, RawSimulatorLanePhasesMatchSerial)
{
    using Affinity = Simulator::Affinity;
    auto runRaw = [](Simulator::Engine engine, unsigned workers) {
        Simulator sim;
        Recorder pre(sim, 3, 7), lane0(sim, 5, 6), lane1(sim, 7, 4),
            post(sim, 11, 3);
        sim.add(pre, {Affinity::pre, 0});
        sim.add(lane0, {Affinity::lane, 0});
        sim.add(lane1, {Affinity::lane, 1});
        sim.add(post, {Affinity::post, 0});
        if (engine == Simulator::Engine::parallel)
            sim.setEngine(engine, workers);
        sim.run(100);
        std::vector<std::vector<Cycle>> out{
            pre.action_cycles, lane0.action_cycles, lane1.action_cycles,
            post.action_cycles};
        return out;
    };
    const auto serial = runRaw(Simulator::Engine::serial, 0);
    for (const unsigned workers : {1u, 2u, 4u}) {
        EXPECT_EQ(serial, runRaw(Simulator::Engine::parallel, workers))
            << workers;
    }
}
