/**
 * @file
 * Change-log completeness oracle for the incremental coherence checker.
 *
 * The checker re-checks only the lines whose state went through a logged
 * mutable accessor (src/sim/change_log.hh). This test keeps a shadow copy
 * of every L1 meta/data slot, directory entry, BankedStore line and DRAM
 * line, steps seeded fuzz programs one executed cycle at a time with the
 * checker off (so the test drains the logs itself), and requires every
 * slot that differs from its shadow to appear in its log. A new mutable
 * path that bypasses the logged accessors fails here.
 */

#include <gtest/gtest.h>

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

  private:
    SoC &soc_;
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
        }
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

/** cores x slices x L2 state policy. */
using Combo = std::tuple<unsigned, unsigned, StateKind>;

class ChangeLogOracle : public ::testing::TestWithParam<Combo>
{
};

TEST_P(ChangeLogOracle, EveryChangedSlotIsLogged)
{
    const auto [cores, slices, policy] = GetParam();
    workloads::FuzzSpec spec;
    spec.harts = cores;
    spec.ops = 40;
    spec.l2_slices = slices;
    spec.l2_policy = policy;
    const std::uint64_t seed = 7 + cores + slices;
    SoCConfig cfg = workloads::fuzzConfig(spec, seed);
    cfg.verify.enabled = false; // the test drains the logs itself
    // Small arrays keep the per-cycle shadow compare cheap and make
    // the fuzz pool collide in sets.
    cfg.l1.sets = 16;
    cfg.l2.sets = 64;

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
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ChangeLogOracle,
    ::testing::Combine(::testing::Values(2u, 16u), ::testing::Values(1u, 4u),
                       ::testing::Values(StateKind::Inclusive,
                                         StateKind::Exclusive)),
    [](const ::testing::TestParamInfo<Combo> &info) {
        // The "_serial" suffix is part of each row's recorded test id.
        std::ostringstream os;
        os << "c" << std::get<0>(info.param) << "_s"
           << std::get<1>(info.param) << "_"
           << (std::get<2>(info.param) == StateKind::Inclusive ? "incl"
                                                               : "excl")
           << "_serial";
        return os.str();
    });

} // namespace
} // namespace skipit
