/**
 * @file
 * The coherence invariant checker: catches injected protocol faults by
 * name, stays silent on healthy runs, and costs zero simulated cycles.
 */

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <sstream>
#include <string>

#include "soc/soc.hh"
#include "workloads/fuzz.hh"

namespace skipit {
namespace {

/**
 * A deterministic §5.4 probe-vs-flush-queue race: hart 1 dirties two
 * lines and queues flushes for both; with a single FSHR the second
 * flush waits in the queue while hart 0's load probes its line.
 */
SoCConfig
raceConfig()
{
    SoCConfig cfg;
    cfg.cores = 2;
    cfg.l1.fshrs = 1;
    cfg.l1.flush_queue_depth = 8;
    return cfg;
}

std::vector<Program>
racePrograms()
{
    const Addr a = 0x90000, b = 0x90040;
    Program p1;
    p1.push_back(MemOp::store(a + 8, 0x1111));
    p1.push_back(MemOp::store(b + 8, 0x2222));
    p1.push_back(MemOp::flush(b)); // occupies the only FSHR
    p1.push_back(MemOp::flush(a)); // stays queued, snapshot dirty
    p1.push_back(MemOp::fence());
    Program p0;
    p0.push_back(MemOp::compute(20));
    p0.push_back(MemOp::load(a + 8)); // probes hart 1 mid-queue
    return {p0, p1};
}

TEST(CoherenceChecker, InjectedProbeFaultDiesWithNamedInvariant)
{
    // probe_invalidate disabled: the probe downgrades the line but the
    // queued flush entry keeps its stale dirty snapshot. The checker is
    // fatal by default and must name the broken invariant — proof that
    // it watches this window at all.
    EXPECT_DEATH(
        {
            SoCConfig cfg = raceConfig();
            cfg.l1.test_break_probe_invalidate = true;
            SoC soc(cfg);
            soc.setPrograms(racePrograms());
            soc.runToQuiescence(1'000'000);
        },
        "probe-invalidate");
}

TEST(CoherenceChecker, SameRaceIsCleanWithoutTheFault)
{
    SoC soc(raceConfig());
    soc.setPrograms(racePrograms());
    soc.runToQuiescence(1'000'000);
    EXPECT_TRUE(soc.checker().clean());
    EXPECT_GT(soc.checker().checksRun(), 0u);
    EXPECT_EQ(soc.hart(0).loadValue(1), 0x1111u);
}

TEST(CoherenceChecker, LatchingModeRecordsViolationsWithoutAborting)
{
    SoCConfig cfg = raceConfig();
    cfg.l1.test_break_probe_invalidate = true;
    cfg.verify.fatal = false;
    SoC soc(cfg);
    soc.setPrograms(racePrograms());
    // Stop at the first latched violation; the broken protocol state is
    // not guaranteed to settle.
    soc.sim().runUntil([&] { return !soc.checker().clean(); }, 100'000);
    ASSERT_FALSE(soc.checker().clean());
    EXPECT_EQ(soc.checker().violations().front().invariant,
              "probe-invalidate");
}

TEST(CoherenceChecker, CheckerOnOffIsCycleIdentical)
{
    // The checker is an observer registered last: it never makes a
    // cycle execute, so enabling it must not move a single cycle, even
    // with quiescence fast-forward on.
    const auto run = [](bool enabled) {
        SoCConfig cfg;
        cfg.cores = 2;
        cfg.verify.enabled = enabled;
        SoC soc(cfg);
        std::vector<Program> ps(2);
        for (unsigned c = 0; c < 2; ++c) {
            for (int i = 0; i < 40; ++i) {
                const Addr a = 0x90000 +
                               static_cast<Addr>(i % 5) * line_bytes;
                ps[c].push_back(MemOp::store(a + 8 * c,
                                             0x100u * c + i + 1));
                if (i % 3 == 0)
                    ps[c].push_back(MemOp::flush(a));
                if (i % 7 == 0)
                    ps[c].push_back(MemOp::fence());
            }
        }
        soc.setPrograms(ps);
        return soc.runToQuiescence(10'000'000);
    };
    EXPECT_EQ(run(true), run(false));
}

TEST(CoherenceChecker, CheckNowSweepsQuiescentState)
{
    SoC soc(SoCConfig{});
    Program p;
    p.push_back(MemOp::store(0x40008, 0xabcd));
    p.push_back(MemOp::flush(0x40000));
    p.push_back(MemOp::fence());
    soc.hart(0).setProgram(p);
    soc.runToQuiescence(1'000'000);
    soc.checker().checkNow(); // adds the full L2-vs-DRAM comparison
    EXPECT_TRUE(soc.checker().clean());
    EXPECT_EQ(soc.dram().peekWord(0x40008), 0xabcdu);
}

// ---------------------------------------------------------------------
// Negative controls, one per change-log source (L1 meta, L1 data,
// directory, BankedStore, DRAM). Each injects one fault into a latching
// two-hart SoC, lets the traffic that follows move it, and pins the whole
// latched violation list (cycle, invariant, detail, order). The lists
// were captured with the full-sweep checker; the incremental checker
// must reproduce them exactly.
// ---------------------------------------------------------------------

constexpr Addr ctl_line = 0x90000;

std::string
render(const verify::CoherenceChecker &checker)
{
    std::ostringstream os;
    for (const verify::Violation &v : checker.violations())
        os << v.cycle << " [" << v.invariant << "] " << v.detail << "\n";
    return os.str();
}

SoCConfig
controlConfig()
{
    SoCConfig cfg;
    cfg.cores = 2;
    cfg.verify.fatal = false;
    cfg.verify.max_violations = 24;
    return cfg;
}

/** Run @p programs until @p ready holds, inject, step @p stepped
 *  cycles, run to quiescence and render what the checker latched.
 *  Stepped cycles all execute (fast-forward would skip idle ones), so
 *  a value fault is sampled once per value_interval of them. */
std::string
runControl(const SoCConfig &cfg, const std::vector<Program> &programs,
           const std::function<bool(SoC &)> &ready,
           const std::function<void(SoC &)> &inject, int stepped = 0)
{
    SoC soc(cfg);
    soc.setPrograms(programs);
    soc.sim().runUntil([&] { return ready(soc); }, 100'000);
    inject(soc);
    for (int i = 0; i < stepped; ++i)
        soc.sim().step();
    soc.runToQuiescence(1'000'000);
    return render(soc.checker());
}

bool
missPending(SoC &soc, unsigned core)
{
    for (const L1Mshr &m : soc.l1(core).mshrs()) {
        if (m.valid && m.line == ctl_line)
            return true;
    }
    return false;
}

TEST(CheckerNegativeControl, DirectoryHolderDroppedWithoutProbe)
{
    // inclusivity, born in the L2: hart 0 owns the line dirty, the
    // directory forgets it, and hart 1's load is then granted without
    // a probe, so swmr breaks too.
    const std::string got = runControl(
        controlConfig(),
        {{MemOp::store(ctl_line + 8, 0x11), MemOp::fence()},
         {MemOp::compute(200), MemOp::load(ctl_line + 8)}},
        [](SoC &soc) { return missPending(soc, 1); },
        [](SoC &soc) { soc.l2().injectDropHolder(ctl_line, 0); });
    EXPECT_EQ(got, R"(
205 [inclusivity] l1[0] holds 0x90000 (Trunk) but the directory does not record it
213 [inclusivity] l1[0] holds 0x90000 (Trunk) but the directory does not record it
221 [inclusivity] l1[0] holds 0x90000 (Trunk) but the directory does not record it
227 [swmr] l1[0] is Trunk of 0x90000 while l1[1] holds it as Trunk
227 [inclusivity] l1[0] holds 0x90000 (Trunk) but the directory does not record it
227 [swmr] l1[1] is Trunk of 0x90000 while l1[0] holds it as Trunk
230 [swmr] l1[0] is Trunk of 0x90000 while l1[1] holds it as Trunk
230 [inclusivity] l1[0] holds 0x90000 (Trunk) but the directory does not record it
230 [swmr] l1[1] is Trunk of 0x90000 while l1[0] holds it as Trunk
)" + 1) << "actual:\n" << got;
}

TEST(CheckerNegativeControl, SecondL1ForcedToTrunk)
{
    // swmr: both harts hold the line as Branch; hart 1 promotes itself.
    // Hart 0's store then upgrades and probes hart 1 away.
    const std::string got = runControl(
        controlConfig(),
        {{MemOp::load(ctl_line), MemOp::compute(150),
          MemOp::store(ctl_line + 16, 0x9)},
         {MemOp::compute(20), MemOp::load(ctl_line)}},
        [](SoC &soc) {
            return soc.l1(0).lineState(ctl_line) != ClientState::Nothing &&
                   soc.l1(1).lineState(ctl_line) != ClientState::Nothing;
        },
        [](SoC &soc) { soc.l1(1).injectTrunk(ctl_line); });
    EXPECT_EQ(got, R"(
146 [swmr] l1[1] is Trunk of 0x90000 while l1[0] holds it as Branch
146 [inclusivity] l1[1] is Trunk of 0x90000 but the directory trunk is agent -1
150 [swmr] l1[1] is Trunk of 0x90000 while l1[0] holds it as Branch
150 [inclusivity] l1[1] is Trunk of 0x90000 but the directory trunk is agent -1
151 [swmr] l1[1] is Trunk of 0x90000 while l1[0] holds it as Branch
151 [inclusivity] l1[1] is Trunk of 0x90000 but the directory trunk is agent -1
152 [swmr] l1[1] is Trunk of 0x90000 while l1[0] holds it as Branch
152 [inclusivity] l1[1] is Trunk of 0x90000 but the directory trunk is agent -1
153 [swmr] l1[1] is Trunk of 0x90000 while l1[0] holds it as Branch
153 [inclusivity] l1[1] is Trunk of 0x90000 but the directory trunk is agent -1
155 [swmr] l1[1] is Trunk of 0x90000 while l1[0] holds it as Branch
155 [inclusivity] l1[1] is Trunk of 0x90000 but the directory trunk is agent -1
163 [swmr] l1[1] is Trunk of 0x90000 while l1[0] holds it as Branch
163 [inclusivity] l1[1] is Trunk of 0x90000 but the directory trunk is agent -1
166 [swmr] l1[1] is Trunk of 0x90000 while l1[0] holds it as Branch
166 [inclusivity] l1[1] is Trunk of 0x90000 but the directory trunk is agent -1
167 [swmr] l1[1] is Trunk of 0x90000 while l1[0] holds it as Branch
167 [inclusivity] l1[1] is Trunk of 0x90000 but the directory trunk is agent -1
168 [swmr] l1[1] is Trunk of 0x90000 while l1[0] holds it as Branch
168 [inclusivity] l1[1] is Trunk of 0x90000 but the directory trunk is agent -1
)" + 1) << "actual:\n" << got;
}

TEST(CheckerNegativeControl, ByteFlippedInCleanL1Line)
{
    // value-coherence via L1 data, until hart 1's store probes the
    // corrupted copy away.
    const std::string got = runControl(
        controlConfig(),
        {{MemOp::load(ctl_line)},
         {MemOp::compute(600), MemOp::store(ctl_line + 8, 0x3)}},
        [](SoC &soc) {
            return soc.l1(0).lineState(ctl_line) != ClientState::Nothing;
        },
        [](SoC &soc) { soc.l1(0).injectDataCorruption(ctl_line + 5); },
        48);
    EXPECT_EQ(got, R"(
115 [value-coherence] l1[0] clean copy of 0x90000 differs from the L2 copy
131 [value-coherence] l1[0] clean copy of 0x90000 differs from the L2 copy
147 [value-coherence] l1[0] clean copy of 0x90000 differs from the L2 copy
)" + 1) << "actual:\n" << got;
}

TEST(CheckerNegativeControl, ByteFlippedInL2Store)
{
    // value-coherence via the BankedStore: the clean L1 copy is intact
    // but the L2 bytes it must equal are not.
    const std::string got = runControl(
        controlConfig(),
        {{MemOp::load(ctl_line)},
         {MemOp::compute(600), MemOp::store(ctl_line + 8, 0x3)}},
        [](SoC &soc) {
            return soc.l1(0).lineState(ctl_line) != ClientState::Nothing;
        },
        [](SoC &soc) { soc.l2().injectStoreCorruption(ctl_line + 9); },
        48);
    EXPECT_EQ(got, R"(
115 [value-coherence] l1[0] clean copy of 0x90000 differs from the L2 copy
131 [value-coherence] l1[0] clean copy of 0x90000 differs from the L2 copy
147 [value-coherence] l1[0] clean copy of 0x90000 differs from the L2 copy
)" + 1) << "actual:\n" << got;
}

TEST(CheckerNegativeControl, DramPokedUnderTagOnlyLine)
{
    // The exclusive policy keeps a clean fill tag-only, so DRAM is the
    // L1 copy's ground truth; a poke behind the hierarchy's back breaks
    // value-coherence.
    SoCConfig cfg = controlConfig();
    cfg.l2.policy = StateKind::Exclusive;
    const std::string got = runControl(
        cfg,
        {{MemOp::load(ctl_line)},
         {MemOp::compute(600), MemOp::store(ctl_line + 8, 0x3)}},
        [](SoC &soc) {
            return soc.l1(0).lineState(ctl_line) != ClientState::Nothing;
        },
        [](SoC &soc) {
            LineData bytes{};
            bytes[3] = 0x5a;
            soc.dram().pokeLine(ctl_line, bytes);
        },
        48);
    EXPECT_EQ(got, R"(
115 [value-coherence] l1[0] clean copy of 0x90000 differs from DRAM (L2 entry is tag-only)
131 [value-coherence] l1[0] clean copy of 0x90000 differs from DRAM (L2 entry is tag-only)
147 [value-coherence] l1[0] clean copy of 0x90000 differs from DRAM (L2 entry is tag-only)
)" + 1) << "actual:\n" << got;
}

// ---------------------------------------------------------------------
// Negative controls for the flush unit (flushq-meta, flush-counter,
// flush-counter-global, fshr-fsm). One FSHR keeps hart 0's flush of
// ctl_line queued behind its flush of the next line; each test breaks
// one piece of flush-unit or array state through an injector, steps
// every cycle while it is broken, undoes the fault before the model
// trips over it and pins the whole latched list. The lists were
// captured with the checker that ran every flush-unit check in every
// executed cycle.
// ---------------------------------------------------------------------

constexpr Addr ctl_next = ctl_line + line_bytes;

SoCConfig
flushUnitConfig()
{
    SoCConfig cfg = controlConfig();
    cfg.l1.fshrs = 1;
    cfg.l1.flush_queue_depth = 8;
    return cfg;
}

const std::vector<Program> queued_flush = {
    {MemOp::store(ctl_line + 8, 0x11), MemOp::store(ctl_next + 8, 0x22),
     MemOp::flush(ctl_next), MemOp::flush(ctl_line), MemOp::fence()},
    {}};

bool
flushQueued(SoC &soc)
{
    for (const FlushQueueEntry &e : soc.l1(0).flushQueue()) {
        if (e.addr == ctl_line)
            return true;
    }
    return false;
}

/** Run @p programs until @p ready holds, @p inject, step @p stepped
 *  cycles, @p undo, run to quiescence and render. */
std::string
runFlushUnitControl(const SoCConfig &cfg, const std::vector<Program> &programs,
                    const std::function<bool(SoC &)> &ready,
                    const std::function<void(SoC &)> &inject,
                    int stepped, const std::function<void(SoC &)> &undo)
{
    SoC soc(cfg);
    soc.setPrograms(programs);
    soc.sim().runUntil([&] { return ready(soc); }, 100'000);
    inject(soc);
    for (int i = 0; i < stepped; ++i)
        soc.sim().step();
    undo(soc);
    soc.runToQuiescence(1'000'000);
    return render(soc.checker());
}

TEST(CheckerNegativeControl, QueuedDirtySnapshotFlipped)
{
    // flushq-meta, re-reported in every cycle it stays broken although
    // nothing in the flush unit moves in most of them.
    const auto flip = [](SoC &soc) {
        soc.l1(0).injectFlushSnapshotFlip(ctl_line);
    };
    const std::string got = runFlushUnitControl(
        flushUnitConfig(), queued_flush, flushQueued, flip, 12, flip);
    EXPECT_EQ(got, R"(
123 [flushq-meta] l1[0] flush-queue entry 0x90000 snapshotted dirty=0 but the array says dirty=1
124 [flushq-meta] l1[0] flush-queue entry 0x90000 snapshotted dirty=0 but the array says dirty=1
125 [flushq-meta] l1[0] flush-queue entry 0x90000 snapshotted dirty=0 but the array says dirty=1
126 [flushq-meta] l1[0] flush-queue entry 0x90000 snapshotted dirty=0 but the array says dirty=1
127 [flushq-meta] l1[0] flush-queue entry 0x90000 snapshotted dirty=0 but the array says dirty=1
128 [flushq-meta] l1[0] flush-queue entry 0x90000 snapshotted dirty=0 but the array says dirty=1
129 [flushq-meta] l1[0] flush-queue entry 0x90000 snapshotted dirty=0 but the array says dirty=1
130 [flushq-meta] l1[0] flush-queue entry 0x90000 snapshotted dirty=0 but the array says dirty=1
131 [flushq-meta] l1[0] flush-queue entry 0x90000 snapshotted dirty=0 but the array says dirty=1
132 [flushq-meta] l1[0] flush-queue entry 0x90000 snapshotted dirty=0 but the array says dirty=1
133 [flushq-meta] l1[0] flush-queue entry 0x90000 snapshotted dirty=0 but the array says dirty=1
134 [flushq-meta] l1[0] flush-queue entry 0x90000 snapshotted dirty=0 but the array says dirty=1
)" + 1) << "actual:\n" << got;
}

TEST(CheckerNegativeControl, QueuedLineDirtiedBehindTheQueue)
{
    // flushq-meta through the array alone: the queued clean hit entry's
    // line turns dirty while nothing in the flush unit moves. Skip It
    // off, or the flush of the clean line would be dropped, not queued.
    const auto flip = [](SoC &soc) { soc.l1(0).injectDirtyFlip(ctl_line); };
    const std::string got = runFlushUnitControl(
        flushUnitConfig().withSkipIt(false),
        {{MemOp::load(ctl_line), MemOp::store(ctl_next + 8, 0x22),
          MemOp::flush(ctl_next), MemOp::flush(ctl_line), MemOp::fence()},
         {}},
        flushQueued, flip, 6, flip);
    EXPECT_EQ(got, R"(
232 [flushq-meta] l1[0] flush-queue entry 0x90000 snapshotted dirty=0 but the array says dirty=1
233 [flushq-meta] l1[0] flush-queue entry 0x90000 snapshotted dirty=0 but the array says dirty=1
234 [flushq-meta] l1[0] flush-queue entry 0x90000 snapshotted dirty=0 but the array says dirty=1
235 [flushq-meta] l1[0] flush-queue entry 0x90000 snapshotted dirty=0 but the array says dirty=1
236 [flushq-meta] l1[0] flush-queue entry 0x90000 snapshotted dirty=0 but the array says dirty=1
237 [flushq-meta] l1[0] flush-queue entry 0x90000 snapshotted dirty=0 but the array says dirty=1
)" + 1) << "actual:\n" << got;
}

TEST(CheckerNegativeControl, FlushCounterSkewed)
{
    // flush-counter on a busy L1 and on a quiet one, and the global sum.
    const auto skew = [](int delta) {
        return [delta](SoC &soc) {
            soc.l1(0).injectFlushCounterSkew(delta);
            soc.l1(1).injectFlushCounterSkew(delta);
        };
    };
    const std::string got = runFlushUnitControl(
        flushUnitConfig(), queued_flush, flushQueued, skew(1), 6, skew(-1));
    EXPECT_EQ(got, R"(
123 [flush-counter] l1[0] flush counter 3 != 1 queued + 1 in FSHRs
123 [flush-counter] l1[1] flush counter 1 != 0 queued + 0 in FSHRs
123 [flush-counter-global] summed flush counters 4 != 2 total queued + in-FSHR CBO.X across all L1s
124 [flush-counter] l1[0] flush counter 3 != 1 queued + 1 in FSHRs
124 [flush-counter] l1[1] flush counter 1 != 0 queued + 0 in FSHRs
124 [flush-counter-global] summed flush counters 4 != 2 total queued + in-FSHR CBO.X across all L1s
125 [flush-counter] l1[0] flush counter 3 != 1 queued + 1 in FSHRs
125 [flush-counter] l1[1] flush counter 1 != 0 queued + 0 in FSHRs
125 [flush-counter-global] summed flush counters 4 != 2 total queued + in-FSHR CBO.X across all L1s
126 [flush-counter] l1[0] flush counter 3 != 1 queued + 1 in FSHRs
126 [flush-counter] l1[1] flush counter 1 != 0 queued + 0 in FSHRs
126 [flush-counter-global] summed flush counters 4 != 2 total queued + in-FSHR CBO.X across all L1s
127 [flush-counter] l1[0] flush counter 3 != 1 queued + 1 in FSHRs
127 [flush-counter] l1[1] flush counter 1 != 0 queued + 0 in FSHRs
127 [flush-counter-global] summed flush counters 4 != 2 total queued + in-FSHR CBO.X across all L1s
128 [flush-counter] l1[0] flush counter 3 != 1 queued + 1 in FSHRs
128 [flush-counter] l1[1] flush counter 1 != 0 queued + 0 in FSHRs
128 [flush-counter-global] summed flush counters 4 != 2 total queued + in-FSHR CBO.X across all L1s
)" + 1) << "actual:\n" << got;
}

TEST(CheckerNegativeControl, FshrForcedThroughIllegalTransitions)
{
    // fshr-fsm: RootReleaseAck -> FillBuffer and back are both illegal.
    const std::string got = runFlushUnitControl(
        flushUnitConfig(), queued_flush,
        [](SoC &soc) {
            return soc.l1(0).fshrs()[0].state ==
                   Fshr::State::RootReleaseAck;
        },
        [](SoC &soc) {
            soc.l1(0).injectFshrState(0, Fshr::State::FillBuffer);
        },
        3,
        [](SoC &soc) {
            soc.l1(0).injectFshrState(0, Fshr::State::RootReleaseAck);
        });
    EXPECT_EQ(got, R"(
118 [fshr-fsm] l1[0] fshr0 took illegal transition root_release_ack -> fill_buffer (line 0x90040)
121 [fshr-fsm] l1[0] fshr0 took illegal transition fill_buffer -> root_release_ack (line 0x90040)
)" + 1) << "actual:\n" << got;
}

// ---------------------------------------------------------------------
// data-residency: every inclusive entry holds its bytes, and under either
// state policy a dirty entry does. injectTagOnly() breaks the promise at
// quiescence; checkNow() must name the rule exactly when it applies.
// ---------------------------------------------------------------------

/** Run @p programs to quiescence on a @p policy slice, make ctl_line
 *  tag-only and @return the invariants checkNow() latches. */
std::set<std::string>
tagOnlyViolations(StateKind policy, const std::vector<Program> &programs)
{
    SoCConfig cfg = controlConfig();
    cfg.l2.policy = policy;
    SoC soc(cfg);
    soc.setPrograms(programs);
    soc.runToQuiescence(1'000'000);
    EXPECT_EQ(soc.checker().checkNow(), 0u) << toString(policy);
    const Directory &dir = soc.l2().directory();
    EXPECT_TRUE(dir.entry(dir.setOf(ctl_line), dir.findWay(ctl_line))
                    .data_resident)
        << toString(policy);
    soc.l2().injectTagOnly(ctl_line);
    soc.checker().checkNow();
    std::set<std::string> names;
    for (const verify::Violation &v : soc.checker().violations())
        names.insert(v.invariant);
    return names;
}

/** CBO.CLEAN leaves the L2 entry resident and clean under both
 *  policies (the RootReleaseData makes it resident, the write clean). */
const std::vector<Program> clean_line = {
    {MemOp::store(ctl_line + 8, 0x11), MemOp::clean(ctl_line),
     MemOp::fence()}};

/** Hart 1's load probes hart 0's dirty copy: the ProbeAckData leaves
 *  the L2 entry resident and dirty under both policies. */
const std::vector<Program> dirty_line = {
    {MemOp::store(ctl_line + 8, 0x11), MemOp::fence()},
    {MemOp::compute(200), MemOp::load(ctl_line + 8)}};

TEST(CheckerNegativeControl, TagOnlyEntryInAnInclusiveL2)
{
    EXPECT_EQ(tagOnlyViolations(StateKind::Inclusive, clean_line),
              std::set<std::string>{"data-residency"});
}

TEST(CheckerNegativeControl, CleanTagOnlyEntryIsFineInAnExclusiveL2)
{
    EXPECT_TRUE(tagOnlyViolations(StateKind::Exclusive, clean_line).empty());
}

TEST(CheckerNegativeControl, DirtyTagOnlyEntryUnderEitherPolicy)
{
    for (const StateKind policy :
         {StateKind::Inclusive, StateKind::Exclusive}) {
        EXPECT_TRUE(
            tagOnlyViolations(policy, dirty_line).count("data-residency"))
            << toString(policy);
    }
}

} // namespace
} // namespace skipit
