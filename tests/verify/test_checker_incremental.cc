/**
 * @file
 * Change-log oracle for the incremental coherence checker.
 *
 * The checker re-checks only the lines whose state a write() changed
 * (src/sim/change_log.hh), and re-runs an L1's flush-unit checks only
 * when its flushUnitVersion() moved. This test keeps a shadow copy of
 * every L1 meta/data slot, directory entry, BankedStore line and DRAM
 * line, and of each L1's flush-unit state (queue entries, FSHR states,
 * probe unit, flush counter). It steps seeded fuzz programs and the
 * eviction storm one executed cycle at a time with the checker off (so
 * the test drains the logs itself) and audits both directions:
 *
 * - completeness: every slot that differs from its shadow appears in its
 *   log, and every L1 whose flush-unit state differs moved its version.
 *   A new path that changes checked state around write() or the
 *   version bump fails here.
 * - precision: a log marks only what a write changed, so a marked slot
 *   whose content equals its shadow is a write() that skipped its
 *   compare. No row writes a slot and restores it within one cycle, so
 *   every row requires none.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <tuple>
#include <vector>

#include "../soc/storm.hh"
#include "soc/soc.hh"
#include "workloads/fuzz.hh"

namespace skipit {
namespace {

Addr
lineOf(const DirEntry &e)
{
    return e.valid ? e.tag << line_shift : Directory::no_line;
}

bool
sameQueued(const FlushQueueEntry &a, const FlushQueueEntry &b)
{
    return a.addr == b.addr && a.is_hit == b.is_hit &&
           a.is_dirty == b.is_dirty && a.kind == b.kind && a.txn == b.txn;
}

/** A count per change log. */
struct Marks
{
    std::uint64_t l1 = 0;
    std::uint64_t dir = 0;
    std::uint64_t store = 0;
    std::uint64_t dram = 0;
};

/** Everything the checker's flush-unit checks read of one L1 but its
 *  array lines. */
struct FlushUnit
{
    std::vector<FlushQueueEntry> queue;
    std::vector<Fshr::State> fshrs;
    ProbeUnit probe;
    unsigned counter = 0;
    std::uint64_t version = 0;

    explicit FlushUnit(const DataCache &dc)
        : queue(dc.flushQueue().begin(), dc.flushQueue().end()),
          probe(dc.probeUnit()), counter(dc.flushCounter()),
          version(dc.flushUnitVersion())
    {
        for (const Fshr &f : dc.fshrs())
            fshrs.push_back(f.state);
    }

    bool
    sameState(const FlushUnit &o) const
    {
        return std::equal(queue.begin(), queue.end(), o.queue.begin(),
                          o.queue.end(), sameQueued) &&
               fshrs == o.fshrs && probe.state == o.probe.state &&
               probe.line == o.probe.line && probe.cap == o.probe.cap &&
               counter == o.counter;
    }
};

/** Shadow copies of everything the checker reads, and the audit. */
class Shadow
{
  public:
    explicit Shadow(SoC &soc) : soc_(soc)
    {
        for (unsigned c = 0; c < soc.cores(); ++c) {
            const L1Arrays &a = soc.l1(c).arrays();
            meta_.emplace_back();
            l1_data_.emplace_back();
            flush_.emplace_back(soc.l1(c));
            for (unsigned s = 0; s < a.sets(); ++s) {
                for (unsigned w = 0; w < a.ways(); ++w) {
                    meta_.back().push_back(a.meta(s, w));
                    l1_data_.back().push_back(a.data(s, w));
                }
            }
            a.clearChanges();
        }
        for (unsigned k = 0; k < soc.l2Slices(); ++k) {
            const Directory &dir = soc.l2(k).directory();
            const BankedStore &store = soc.l2(k).store();
            dir_.emplace_back();
            store_.emplace_back();
            for (unsigned s = 0; s < dir.sets(); ++s) {
                for (unsigned w = 0; w < dir.ways(); ++w) {
                    dir_.back().push_back(dir.entry(s, w));
                    store_.back().push_back(store.read(s, w));
                }
            }
            dir.clearChanges();
            store.clearChanges();
        }
        const Dram &dram = soc.dram();
        for (std::size_t s = 0; s < dram.storedLines(); ++s)
            dram_.push_back(dram.peekLine(dram.storedLine(s)));
        dram.clearChanges();
    }

    /** Every slot that differs from the shadow must be in its log, and
     *  each marked slot that does not is counted; then adopt the new
     *  state and drain the logs. */
    void
    audit()
    {
        auditL1s();
        auditL2s();
        auditDram();
    }

    std::uint64_t l1Changes() const { return l1_changes_; }
    std::uint64_t dirChanges() const { return dir_changes_; }
    std::uint64_t storeChanges() const { return store_changes_; }
    std::uint64_t dramChanges() const { return dram_changes_; }
    std::uint64_t flushChanges() const { return flush_changes_; }
    /** Queued entries a probe's invalidate-queue stage rewrote. */
    std::uint64_t probeRewrites() const { return probe_rewrites_; }
    /** Queued entries rewritten with no probe in that stage: evictions. */
    std::uint64_t evictionRewrites() const { return eviction_rewrites_; }
    /** Marked slots whose content equals the shadow, per log. */
    const Marks &unchangedMarks() const { return unchanged_; }

  private:
    SoC &soc_;
    std::vector<FlushUnit> flush_;
    std::uint64_t flush_changes_ = 0;
    std::uint64_t probe_rewrites_ = 0;
    std::uint64_t eviction_rewrites_ = 0;
    std::vector<std::vector<L1Meta>> meta_;
    std::vector<std::vector<LineData>> l1_data_;
    std::vector<std::vector<DirEntry>> dir_;
    std::vector<std::vector<LineData>> store_;
    std::vector<LineData> dram_;
    std::uint64_t l1_changes_ = 0;
    std::uint64_t dir_changes_ = 0;
    std::uint64_t store_changes_ = 0;
    std::uint64_t dram_changes_ = 0;
    Marks unchanged_;

    std::string
    where(const char *what, unsigned owner, std::size_t slot) const
    {
        std::ostringstream os;
        os << what << "[" << owner << "] slot " << slot << " changed at cycle "
           << soc_.sim().now() << " without a log mark";
        return os.str();
    }

    void
    auditL1s()
    {
        for (unsigned c = 0; c < soc_.cores(); ++c) {
            const L1Arrays &a = soc_.l1(c).arrays();
            for (std::size_t i = 0; i < meta_[c].size(); ++i) {
                const unsigned set = static_cast<unsigned>(i / a.ways());
                const unsigned way = static_cast<unsigned>(i % a.ways());
                const L1Meta &m = a.meta(set, way);
                const LineData &d = a.data(set, way);
                if (m == meta_[c][i] && d == l1_data_[c][i]) {
                    unchanged_.l1 += a.changes().marked(i) ? 1 : 0;
                    continue;
                }
                ASSERT_TRUE(a.changes().marked(i)) << where("l1", c, i);
                meta_[c][i] = m;
                l1_data_[c][i] = d;
                ++l1_changes_;
            }
            a.clearChanges();
            auditFlushUnit(c);
        }
    }

    void
    auditFlushUnit(unsigned c)
    {
        FlushUnit now(soc_.l1(c));
        FlushUnit &was = flush_[c];
        if (now.sameState(was))
            return;
        ASSERT_NE(now.version, was.version)
            << "l1[" << c << "] flush unit changed at cycle "
            << soc_.sim().now() << " without a flushUnitVersion() bump";
        // An entry still queued (same txn) with new flags was rewritten
        // by invalidateFlushEntries.
        for (const FlushQueueEntry &e : now.queue) {
            for (const FlushQueueEntry &o : was.queue) {
                if (o.txn != e.txn || sameQueued(o, e))
                    continue;
                const bool probed =
                    was.probe.state == ProbeUnit::State::InvalidateQueue &&
                    was.probe.line == e.addr;
                ++(probed ? probe_rewrites_ : eviction_rewrites_);
            }
        }
        was = std::move(now);
        ++flush_changes_;
    }

    void
    auditL2s()
    {
        for (unsigned k = 0; k < soc_.l2Slices(); ++k) {
            const Directory &dir = soc_.l2(k).directory();
            const BankedStore &store = soc_.l2(k).store();
            // The prior line is what the shadow held at the last drain.
            const std::vector<std::size_t> &marked = dir.changes().slots();
            ASSERT_EQ(marked.size(), dir.priorLines().size());
            for (std::size_t n = 0; n < marked.size(); ++n) {
                ASSERT_EQ(dir.priorLines()[n], lineOf(dir_[k][marked[n]]))
                    << "directory[" << k << "] slot " << marked[n]
                    << " recorded the wrong prior line";
            }
            for (std::size_t i = 0; i < dir_[k].size(); ++i) {
                const unsigned set = static_cast<unsigned>(i / dir.ways());
                const unsigned way = static_cast<unsigned>(i % dir.ways());
                const DirEntry &e = dir.entry(set, way);
                if (e != dir_[k][i]) {
                    ASSERT_TRUE(dir.changes().marked(i))
                        << where("directory", k, i);
                    dir_[k][i] = e;
                    ++dir_changes_;
                } else {
                    unchanged_.dir += dir.changes().marked(i) ? 1 : 0;
                }
                const LineData &bytes = store.read(set, way);
                if (bytes != store_[k][i]) {
                    ASSERT_TRUE(store.changes().marked(i))
                        << where("store", k, i);
                    store_[k][i] = bytes;
                    ++store_changes_;
                } else {
                    unchanged_.store += store.changes().marked(i) ? 1 : 0;
                }
            }
            dir.clearChanges();
            store.clearChanges();
        }
    }

    void
    auditDram()
    {
        const Dram &dram = soc_.dram();
        for (std::size_t s = 0; s < dram.storedLines(); ++s) {
            const LineData bytes = dram.peekLine(dram.storedLine(s));
            if (s < dram_.size() && bytes == dram_[s]) {
                unchanged_.dram += dram.changes().marked(s) ? 1 : 0;
                continue;
            }
            ASSERT_TRUE(dram.changes().marked(s)) << where("dram", 0, s);
            if (s < dram_.size())
                dram_[s] = bytes;
            else
                dram_.push_back(bytes);
            ++dram_changes_;
        }
        dram.clearChanges();
    }
};

/** Precision: no log marks a slot that no write changed. */
void
expectExact(const Marks &unchanged)
{
    EXPECT_EQ(unchanged.l1, 0u) << "L1 slots marked but unchanged";
    EXPECT_EQ(unchanged.dir, 0u) << "directory slots marked but unchanged";
    EXPECT_EQ(unchanged.store, 0u) << "store slots marked but unchanged";
    EXPECT_EQ(unchanged.dram, 0u) << "DRAM slots marked but unchanged";
}

/** cores x slices x L2 state policy x L1 FSHRs (0 = default). */
using Combo = std::tuple<unsigned, unsigned, StateKind, unsigned>;

class ChangeLogOracle : public ::testing::TestWithParam<Combo>
{
};

/** Run one seeded fuzz machine under the shadow audit. */
void
auditRun(const Combo &combo, bool llc_skip)
{
    const auto [cores, slices, policy, fshrs] = combo;
    workloads::FuzzSpec spec;
    spec.machine.cores = cores;
    spec.ops = 40;
    spec.machine.l2.slices = slices;
    spec.machine.l2.policy = policy;
    spec.machine.l2.llc_skip = llc_skip;
    if (fshrs != 0) {
        spec.machine.l1.fshrs = fshrs;
        spec.machine.l1.flush_queue_depth = 8;
    }
    const std::uint64_t seed = 7 + cores + slices;
    SoCConfig cfg = workloads::fuzzConfig(spec, seed);
    cfg.verify.enabled = false; // the test drains the logs itself
    // Small arrays keep the per-cycle shadow compare cheap and make
    // the fuzz pool collide in sets.
    cfg.l1.sets = 16;
    cfg.l2.sets = 64;
    if (fshrs == 1) {
        // One 2-way set for the six pool lines: queued lines are
        // evicted as well as probed.
        cfg.l1.sets = 1;
        cfg.l1.ways = 2;
    }

    SoC soc(cfg);
    soc.setPrograms(workloads::generateFuzzPrograms(spec, seed));
    Shadow shadow(soc);
    soc.sim().runUntil(
        [&] {
            shadow.audit();
            return ::testing::Test::HasFatalFailure() || soc.quiesced();
        },
        spec.max_cycles);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    // Non-vacuous: every log source saw real changes.
    EXPECT_GT(shadow.l1Changes(), 0u);
    EXPECT_GT(shadow.dirChanges(), 0u);
    EXPECT_GT(shadow.storeChanges(), 0u);
    EXPECT_GT(shadow.dramChanges(), 0u);
    EXPECT_GT(shadow.flushChanges(), 0u);
    // One FSHR keeps entries queued long enough for probes and
    // evictions to rewrite them (§5.4), so the rule for
    // invalidateFlushEntries is exercised.
    if (fshrs == 1) {
        EXPECT_GT(shadow.probeRewrites(), 0u);
        EXPECT_GT(shadow.evictionRewrites(), 0u);
    }
    expectExact(shadow.unchangedMarks());
}

TEST_P(ChangeLogOracle, EveryChangedSlotIsLogged)
{
    auditRun(GetParam(), true);
}

/** Without llc_skip a RootRelease writes a clean line back as well:
 *  DRAM is sent bytes it already holds, and the write ack finds the
 *  entry clean. */
TEST(ChangeLogOracleNoLlcSkip, EveryChangedSlotIsLogged)
{
    auditRun({2u, 1u, StateKind::Inclusive, 0u}, false);
}

/** No fuzz row stores the bytes a line already holds: a store hit on a
 *  dirty line that does must mark nothing, and one with new bytes must
 *  mark the slot. */
TEST(ChangeLogPrecision, StoreOfTheHeldBytesMarksNothing)
{
    SoCConfig cfg;
    cfg.verify.enabled = false; // the test drains the log itself
    SoC soc(cfg);
    const auto serve = [&](const MemOp &op) {
        soc.hart(0).setProgram({op});
        soc.runToCompletion();
        soc.sim().runUntil([&] { return soc.quiesced(); }, 100'000);
    };
    const Addr line = 0x1000;
    serve(MemOp::store(line, 0xab, 1)); // a miss: the line is now dirty
    const L1Arrays &a = soc.l1(0).arrays();
    ASSERT_TRUE(soc.l1(0).lineDirty(line));
    const std::size_t slot = std::size_t{a.setOf(line)} * a.ways() +
                             static_cast<unsigned>(a.findWay(line));
    a.clearChanges();
    // Only the low byte is stored, and it is the one the line holds.
    serve(MemOp::store(line, 0x77ab, 1));
    EXPECT_FALSE(a.changes().marked(slot));
    serve(MemOp::store(line, 0xac, 1));
    EXPECT_TRUE(a.changes().marked(slot));
}

/** Nor does a fuzz row make a CBO.ZERO or a CBO.INVAL. A CBO.ZERO on a
 *  Branch copy upgrades it through an MSHR, so nothing is written until
 *  the grant; a CBO.INVAL of a clean line has no dirty data to drop. */
TEST(ChangeLogPrecision, CboZeroAndInvalMarkOnlyWhatTheyChange)
{
    SoCConfig cfg;
    cfg.cores = 2;
    cfg.verify.enabled = false; // the test drains the logs itself
    SoC soc(cfg);
    const Addr shared = 0x2000;
    const Addr clean = 0x3000;
    // Hart 1's load downgrades hart 0's copy of the shared line to
    // Branch well before hart 0 zeroes it.
    soc.setPrograms({{MemOp::load(shared), MemOp::compute(2000),
                      MemOp::zero(shared), MemOp::load(clean),
                      MemOp::inval(clean), MemOp::fence()},
                     {MemOp::compute(500), MemOp::load(shared)}});
    Shadow shadow(soc);
    soc.sim().runUntil(
        [&] {
            shadow.audit();
            return HasFatalFailure() || soc.quiesced();
        },
        100'000);
    ASSERT_FALSE(HasFatalFailure());
    // Three misses: both loads and the zero's BtoT upgrade.
    EXPECT_EQ(soc.stats().get("l1.0.mshr_primary"), 3u);
    EXPECT_EQ(soc.stats().get("l2.rootrelease.inval_discarded"), 1u);
    const Marks &unchanged = shadow.unchangedMarks();
    EXPECT_EQ(unchanged.l1, 0u) << "L1 slots marked but unchanged";
    EXPECT_EQ(unchanged.dir, 0u) << "directory slots marked but unchanged";
}

/**
 * The LiveSetPin eviction storm (16 harts, 4 slices) under the shadow:
 * the only rows whose L2 evicts, so victim writebacks, back-invalidation
 * probes and ListBuffer retries all occur. A completed CBO.CLEAN sets a
 * skip bit a GrantData fill already set, and with a small DRAM window
 * a dirty victim waits in EvictWriteback for a free request slot; both
 * must leave their slot unmarked.
 */
void
auditStorm(SoCConfig cfg)
{
    cfg.verify.enabled = false; // the test drains the logs itself
    SoC soc(cfg);
    soc.setPrograms(stormPrograms(cfg.cores, 400));
    Shadow shadow(soc);
    soc.sim().runUntil(
        [&] {
            shadow.audit();
            return ::testing::Test::HasFatalFailure() || soc.quiesced();
        },
        1'000'000);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    const Stats &st = soc.stats();
    EXPECT_GT(st.get("l2.victim_writebacks"), 0u);
    EXPECT_GT(st.get("l2.probes"), 0u);
    EXPECT_GT(st.get("l2.listbuffer.buffered"), 0u);
    expectExact(shadow.unchangedMarks());
}

TEST(ChangeLogStorm, DefaultDramWindow)
{
    auditStorm(stormConfig(16, 4));
}

TEST(ChangeLogStorm, FourEntryDramWindow)
{
    SoCConfig cfg = stormConfig(16, 4);
    cfg.dram.max_inflight = 4;
    auditStorm(cfg);
}

std::string
comboName(const ::testing::TestParamInfo<Combo> &info)
{
    // The "_serial" suffix is part of each row's recorded test id.
    std::ostringstream os;
    os << "c" << std::get<0>(info.param) << "_s" << std::get<1>(info.param)
       << "_"
       << (std::get<2>(info.param) == StateKind::Inclusive ? "incl"
                                                           : "excl");
    if (std::get<3>(info.param) != 0)
        os << "_f" << std::get<3>(info.param) << "q8";
    os << "_serial";
    return os.str();
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ChangeLogOracle,
    ::testing::Combine(::testing::Values(2u, 16u), ::testing::Values(1u, 4u),
                       ::testing::Values(StateKind::Inclusive,
                                         StateKind::Exclusive),
                       ::testing::Values(0u)),
    comboName);

/** The §5.4 corner: one FSHR and a queue of 8. */
INSTANTIATE_TEST_SUITE_P(
    OneFshr, ChangeLogOracle,
    ::testing::Values(Combo{4u, 1u, StateKind::Inclusive, 1u}), comboName);

} // namespace
} // namespace skipit
