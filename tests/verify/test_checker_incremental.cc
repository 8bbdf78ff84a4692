/**
 * @file
 * Change-log completeness oracle for the incremental coherence checker.
 *
 * The checker re-checks only the lines whose state went through a logged
 * mutable accessor (src/sim/change_log.hh), and re-runs an L1's
 * flush-unit checks only when its flushUnitVersion() moved. This test
 * keeps a shadow copy of every L1 meta/data slot, directory entry,
 * BankedStore line and DRAM line, and of each L1's flush-unit state
 * (queue entries, FSHR states, probe unit, flush counter). It steps
 * seeded fuzz programs one executed cycle at a time with the checker
 * off (so the test drains the logs itself), and requires every slot
 * that differs from its shadow to appear in its log, and every L1 whose
 * flush-unit state differs to have moved its version. A new mutable
 * path that bypasses the logged accessors or the version bump fails
 * here.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <tuple>
#include <vector>

#include "soc/soc.hh"
#include "workloads/fuzz.hh"

namespace skipit {
namespace {

bool
sameMeta(const L1Meta &a, const L1Meta &b)
{
    return a.state == b.state && a.tag == b.tag && a.dirty == b.dirty &&
           a.skip == b.skip;
}

bool
sameEntry(const DirEntry &a, const DirEntry &b)
{
    return a.valid == b.valid && a.tag == b.tag && a.dirty == b.dirty &&
           a.data_resident == b.data_resident &&
           a.branches == b.branches && a.trunk == b.trunk;
}

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

    /** Every slot that differs from the shadow must be in its log; then
     *  adopt the new state and drain the logs. */
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
                if (sameMeta(m, meta_[c][i]) && d == l1_data_[c][i])
                    continue;
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
                if (!sameEntry(e, dir_[k][i])) {
                    ASSERT_TRUE(dir.changes().marked(i))
                        << where("directory", k, i);
                    dir_[k][i] = e;
                    ++dir_changes_;
                }
                const LineData &bytes = store.read(set, way);
                if (bytes != store_[k][i]) {
                    ASSERT_TRUE(store.changes().marked(i))
                        << where("store", k, i);
                    store_[k][i] = bytes;
                    ++store_changes_;
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
            if (s < dram_.size() && bytes == dram_[s])
                continue;
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

/** cores x slices x L2 state policy x L1 FSHRs (0 = default). */
using Combo = std::tuple<unsigned, unsigned, StateKind, unsigned>;

class ChangeLogOracle : public ::testing::TestWithParam<Combo>
{
};

TEST_P(ChangeLogOracle, EveryChangedSlotIsLogged)
{
    const auto [cores, slices, policy, fshrs] = GetParam();
    workloads::FuzzSpec spec;
    spec.machine.cores = cores;
    spec.ops = 40;
    spec.machine.l2.slices = slices;
    spec.machine.l2.policy = policy;
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
            return HasFatalFailure() || soc.quiesced();
        },
        spec.max_cycles);
    ASSERT_FALSE(HasFatalFailure());
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
