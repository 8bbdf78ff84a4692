#include "checker.hh"

#include <algorithm>
#include <cstring>
#include <optional>
#include <utility>

#include "coherence/state.hh"
#include "dram/dram.hh"
#include "l1/data_cache.hh"
#include "l2/directory.hh"
#include "l2/cache.hh"
#include "sim/logging.hh"

namespace skipit::verify {

namespace {

const char *
fshrStateName(Fshr::State s)
{
    switch (s) {
      case Fshr::State::Invalid:
        return "invalid";
      case Fshr::State::MetaWrite:
        return "meta_write";
      case Fshr::State::FillBuffer:
        return "fill_buffer";
      case Fshr::State::RootReleaseData:
        return "root_release_data";
      case Fshr::State::RootRelease:
        return "root_release";
      case Fshr::State::RootReleaseAck:
        return "root_release_ack";
    }
    return "?";
}

/**
 * Per-executed-cycle transition legality (Figure 7). Self loops are always
 * legal (an FSHR may wait in a state). RootReleaseAck may complete and be
 * reallocated within one cycle, so it also steps to the two entry states.
 */
bool
fshrTransitionLegal(Fshr::State from, Fshr::State to)
{
    using S = Fshr::State;
    if (from == to)
        return true;
    switch (from) {
      case S::Invalid:
        return to == S::MetaWrite || to == S::RootRelease;
      case S::MetaWrite:
        return to == S::FillBuffer || to == S::RootRelease;
      case S::FillBuffer:
        return to == S::RootReleaseData;
      case S::RootReleaseData:
      case S::RootRelease:
        return to == S::RootReleaseAck;
      case S::RootReleaseAck:
        return to == S::Invalid || to == S::MetaWrite ||
               to == S::RootRelease;
    }
    return false;
}

} // namespace

CoherenceChecker::CoherenceChecker(std::string name, Simulator &sim,
                                   const CheckerConfig &cfg)
    : Ticked(std::move(name), Role::Observer), sim_(sim), cfg_(cfg)
{
}

void
CoherenceChecker::addL1(const DataCache &l1)
{
    // Index order must match AgentId order: l1s_[id] is the cache whose
    // TileLink source id is @p id (the SoC adds them in core order).
    SKIPIT_ASSERT(l1s_.size() < 64, "the checker watches at most 64 L1s: "
                  "each is one bit of a 64-bit bitset");
    l1s_.push_back(&l1);
    prev_fshr_.emplace_back(l1.fshrs().size(), Fshr::State::Invalid);
    // No version equals this one, so the first tick checks the L1.
    flush_seen_.push_back(~l1.flushUnitVersion());
    const std::size_t slots =
        std::size_t{l1.arrays().sets()} * l1.arrays().ways();
    work_.push_back({ChangeLog(slots), ChangeLog(slots)});
}

void
CoherenceChecker::tick()
{
    if (!cfg_.enabled)
        return;
    ++checks_run_;
    drainChanges();
    bool flush_moved = false;
    for (std::size_t i = 0; i < l1s_.size(); ++i) {
        ChangeLog &recheck = work_[i].recheck;
        if (!recheck.slots().empty()) {
            const unsigned ways = l1s_[i]->arrays().ways();
            const std::vector<std::size_t> &due = sortedSlots(recheck);
            recheck.clear();
            for (const std::size_t s : due) {
                if (checkLineStructural(i, static_cast<unsigned>(s / ways),
                                        static_cast<unsigned>(s % ways))) {
                    recheck.mark(s);
                }
            }
        }

        // The flush-unit checks read the L1's flush-unit state, which
        // moves its version, and the array lines of queued entries.
        const DataCache &dc = *l1s_[i];
        const std::uint64_t bit = std::uint64_t{1} << i;
        const std::uint64_t version = dc.flushUnitVersion();
        if (version == flush_seen_[i] && (flush_failing_ & bit) == 0 &&
            ((arrays_changed_ & bit) == 0 || dc.flushQueue().empty())) {
            continue;
        }
        flush_moved = flush_moved || version != flush_seen_[i];
        flush_seen_[i] = version;
        const std::uint64_t before = reported_;
        checkL1Queues(i);
        checkFshrFsm(i);
        snapshotFshrStates(i);
        flush_failing_ = reported_ != before ? flush_failing_ | bit
                                             : flush_failing_ & ~bit;
    }
    checkSliceRouting(DirScan::None);
    if (flush_moved || global_failing_) {
        const std::uint64_t before = reported_;
        checkGlobalFlushCounter();
        global_failing_ = reported_ != before;
    }
    if (cfg_.value_interval > 0 &&
        checks_run_ % cfg_.value_interval == 0) {
        for (std::size_t i = 0; i < l1s_.size(); ++i) {
            ChangeLog &owing = work_[i].owing;
            if (owing.slots().empty())
                continue;
            const unsigned ways = l1s_[i]->arrays().ways();
            const std::vector<std::size_t> &due = sortedSlots(owing);
            owing.clear();
            for (const std::size_t s : due) {
                if (checkLineValues(i, static_cast<unsigned>(s / ways),
                                    static_cast<unsigned>(s % ways))) {
                    owing.mark(s);
                }
            }
        }
        checkSliceRouting(DirScan::Tracked);
    }
}

void
CoherenceChecker::drainChanges()
{
    arrays_changed_ = 0;
    if (!primed_) {
        primed_ = true;
        for (std::size_t i = 0; i < l1s_.size(); ++i) {
            const L1Arrays &a = l1s_[i]->arrays();
            for (std::size_t s = 0; s < std::size_t{a.sets()} * a.ways(); ++s)
                markSlot(i, s);
        }
        foreign_.assign(l2s_.size(), {});
        for (std::size_t k = 0; k < l2s_.size(); ++k) {
            const Directory &dir = l2s_[k]->directory();
            for (std::size_t s = 0; s < std::size_t{dir.sets()} * dir.ways();
                 ++s) {
                trackForeign(k, s);
            }
        }
    } else {
        for (std::size_t i = 0; i < l1s_.size(); ++i) {
            const L1Arrays &a = l1s_[i]->arrays();
            if (!a.changes().slots().empty())
                arrays_changed_ |= std::uint64_t{1} << i;
            for (const std::size_t s : a.changes().slots()) {
                markSlot(i, s);
                // Other L1s' swmr verdicts on this line read it too.
                const L1Meta &m =
                    a.meta(static_cast<unsigned>(s / a.ways()),
                           static_cast<unsigned>(s % a.ways()));
                if (m.valid())
                    markLine(m.tag << line_shift);
            }
        }
        for (std::size_t k = 0; k < l2s_.size(); ++k) {
            const L2Cache *l2 = l2s_[k];
            const Directory &dir = l2->directory();
            const auto markHeld = [&](std::size_t s) {
                const unsigned set = static_cast<unsigned>(s / dir.ways());
                const unsigned way = static_cast<unsigned>(s % dir.ways());
                if (dir.entry(set, way).valid)
                    markLine(dir.addrOf(set, way));
            };
            // A directory entry changes the verdicts of both the line it
            // held before and the line it holds now.
            const std::vector<std::size_t> &slots = dir.changes().slots();
            for (std::size_t n = 0; n < slots.size(); ++n) {
                if (dir.priorLines()[n] != Directory::no_line)
                    markLine(dir.priorLines()[n]);
                markHeld(slots[n]);
                trackForeign(k, slots[n]);
            }
            for (const std::size_t s : l2->store().changes().slots())
                markHeld(s);
        }
        if (dram_ != nullptr) {
            for (const std::size_t s : dram_->changes().slots())
                markLine(dram_->storedLine(s));
        }
    }
    for (const DataCache *l1 : l1s_)
        l1->arrays().clearChanges();
    for (const L2Cache *l2 : l2s_) {
        l2->directory().clearChanges();
        l2->store().clearChanges();
    }
    if (dram_ != nullptr)
        dram_->clearChanges();
}

void
CoherenceChecker::trackForeign(std::size_t slice, std::size_t slot)
{
    const L2Cache &l2 = *l2s_[slice];
    if (l2.sliceCount() <= 1)
        return;
    const Directory &dir = l2.directory();
    const unsigned set = static_cast<unsigned>(slot / dir.ways());
    const unsigned way = static_cast<unsigned>(slot % dir.ways());
    if (dir.entry(set, way).valid && !l2.homesLine(dir.addrOf(set, way)))
        foreign_[slice].insert(slot);
    else
        foreign_[slice].erase(slot);
}

void
CoherenceChecker::markLine(Addr line)
{
    for (std::size_t j = 0; j < l1s_.size(); ++j) {
        const L1Arrays &a = l1s_[j]->arrays();
        const int way = a.findWay(line);
        if (way >= 0) {
            markSlot(j, std::size_t{a.setOf(line)} * a.ways() +
                            static_cast<unsigned>(way));
        }
    }
}

void
CoherenceChecker::markSlot(std::size_t idx, std::size_t slot)
{
    work_[idx].recheck.mark(slot);
    work_[idx].owing.mark(slot);
}

const std::vector<std::size_t> &
CoherenceChecker::sortedSlots(const ChangeLog &log)
{
    order_ = log.slots();
    std::sort(order_.begin(), order_.end());
    return order_;
}

std::size_t
CoherenceChecker::checkNow()
{
    if (!cfg_.enabled)
        return 0;
    const std::size_t before = violations_.size();
    for (std::size_t i = 0; i < l1s_.size(); ++i) {
        checkL1Structural(i);
        checkFshrFsm(i);
    }
    checkSliceRouting(DirScan::Full);
    checkGlobalFlushCounter();
    for (std::size_t i = 0; i < l1s_.size(); ++i)
        checkValues(i);
    checkL2DramSweep();
    for (std::size_t i = 0; i < l1s_.size(); ++i)
        snapshotFshrStates(i);
    return violations_.size() - before;
}

void
CoherenceChecker::escalate(std::ostream &os)
{
    if (!cfg_.enabled)
        return;
    std::vector<Violation> found;
    collect_ = &found;
    checkNow();
    collect_ = nullptr;
    if (found.empty()) {
        os << "CHECKER: full invariant sweep clean @ cycle " << sim_.now()
           << " (stall is a liveness problem, not a coherence one)\n";
        return;
    }
    os << "CHECKER: " << found.size() << " invariant violation(s) @ cycle "
       << sim_.now() << ":\n";
    for (const Violation &v : found) {
        os << "  [" << v.invariant << "] " << v.detail << "\n";
        if (violations_.size() < cfg_.max_violations)
            violations_.push_back(v);
    }
}

void
CoherenceChecker::report(std::ostream &os) const
{
    os << "checker: " << checks_run_ << " cycles checked, "
       << violations_.size() << " violation(s)\n";
    for (const Violation &v : violations_) {
        os << "  cycle " << v.cycle << " [" << v.invariant << "] "
           << v.detail << "\n";
    }
}

void
CoherenceChecker::fail(const char *invariant, std::string detail)
{
    ++reported_;
    if (collect_ != nullptr) {
        if (collect_->size() < cfg_.max_violations)
            collect_->push_back({sim_.now(), invariant, std::move(detail)});
        return;
    }
    if (cfg_.fatal) {
        SKIPIT_PANIC("coherence invariant '", invariant,
                     "' violated @ cycle ", sim_.now(), ": ", detail);
    }
    if (violations_.size() < cfg_.max_violations)
        violations_.push_back({sim_.now(), invariant, std::move(detail)});
}

const L2Cache *
CoherenceChecker::homeL2(Addr line) const
{
    if (l2s_.empty())
        return nullptr;
    // The slices share one indexing policy (modulo or hashed); ask it
    // where the line homes. l2s_ is registered in slice order.
    const unsigned s = l2s_.front()->indexPolicy().sliceOf(lineAlign(line));
    return s < l2s_.size() ? l2s_[s] : nullptr;
}

bool
CoherenceChecker::lineQuiet(Addr line) const
{
    for (const DataCache *l1 : l1s_) {
        if (l1->lineBusy(line))
            return false;
    }
    // Every slice, not just the home one: a misrouted transaction (the
    // very fault slice-routing exists to catch) is still in-flight state.
    for (const L2Cache *l2 : l2s_) {
        if (l2->lineBusy(line))
            return false;
    }
    return true;
}

void
CoherenceChecker::checkL1Structural(std::size_t idx)
{
    const L1Arrays &arrays = l1s_[idx]->arrays();
    for (unsigned set = 0; set < arrays.sets(); ++set) {
        for (unsigned way = 0; way < arrays.ways(); ++way)
            checkLineStructural(idx, set, way);
    }
    checkL1Queues(idx);
}

bool
CoherenceChecker::checkLineStructural(std::size_t idx, unsigned set,
                                      unsigned way)
{
    const L1Arrays &arrays = l1s_[idx]->arrays();
    const AgentId id = static_cast<AgentId>(idx);
    const L1Meta &meta = arrays.meta(set, way);
    if (!meta.valid())
        return false;
    const Addr line = arrays.addrOf(set, way);
    bool failed = false;

    // swmr: only a Trunk may hold dirty data.
    if (meta.dirty && meta.state != ClientState::Trunk) {
        failed = true;
        fail("swmr", detail::concat(
                 "l1[", idx, "] holds 0x", std::hex, line,
                 " dirty in state ", toString(meta.state)));
    }
    // swmr: a Trunk is the sole holder across all L1s.
    if (meta.state == ClientState::Trunk) {
        for (std::size_t j = 0; j < l1s_.size(); ++j) {
            if (j == idx)
                continue;
            const ClientState other = l1s_[j]->lineState(line);
            if (other != ClientState::Nothing) {
                failed = true;
                fail("swmr", detail::concat(
                         "l1[", idx, "] is Trunk of 0x", std::hex, line,
                         " while l1[", std::dec, j, "] holds it as ",
                         toString(other)));
            }
        }
    }

    // inclusivity: the home slice's directory records (at least) what
    // the L1 actually holds. The reverse is legal in flight.
    if (const L2Cache *l2 = homeL2(line)) {
        const Directory &dir = l2->directory();
        const int l2_way = dir.findWay(line);
        if (l2_way < 0) {
            fail("inclusivity", detail::concat(
                     "l1[", idx, "] holds 0x", std::hex, line, " (",
                     toString(meta.state), ") absent from L2 slice ",
                     std::dec, l2->sliceIndex(), "'s directory"));
            return true;
        }
        const DirEntry &e =
            dir.entry(dir.setOf(line), static_cast<unsigned>(l2_way));
        if (!e.heldBy(id)) {
            failed = true;
            fail("inclusivity", detail::concat(
                     "l1[", idx, "] holds 0x", std::hex, line, " (",
                     toString(meta.state),
                     ") but the directory does not record it"));
        } else if (meta.state == ClientState::Trunk && e.trunk != id) {
            failed = true;
            fail("inclusivity", detail::concat(
                     "l1[", idx, "] is Trunk of 0x", std::hex, line,
                     " but the directory trunk is agent ", std::dec,
                     e.trunk));
        }
    }
    return failed;
}

void
CoherenceChecker::checkL1Queues(std::size_t idx)
{
    const DataCache &dc = *l1s_[idx];
    const L1Arrays &arrays = dc.arrays();

    // flushq-meta: queue snapshots agree with the array (§5.4's
    // probe_invalidate keeps them coherent through downgrades).
    for (const FlushQueueEntry &e : dc.flushQueue()) {
        if (e.is_dirty && !e.is_hit) {
            fail("flushq-meta", detail::concat(
                     "l1[", idx, "] flush-queue entry 0x", std::hex,
                     e.addr, " claims dirty data without a hit"));
        }
        if (!e.is_hit)
            continue;
        const int way = arrays.findWay(e.addr);
        if (way < 0) {
            fail("flushq-meta", detail::concat(
                     "l1[", idx, "] flush-queue hit entry 0x", std::hex,
                     e.addr, " but the line is no longer resident"));
            continue;
        }
        const L1Meta &meta = arrays.meta(arrays.setOf(e.addr),
                                         static_cast<unsigned>(way));
        // probe_invalidate clears the queued snapshot the moment a probe
        // claims the line, but the array bit is only dropped when the
        // probe responds (§5.4) — tolerate that one-directional window
        // while the probe unit is mid-flight on this line.
        const ProbeUnit &pu = dc.probeUnit();
        const bool probe_window =
            pu.busy() && pu.line == e.addr && meta.dirty && !e.is_dirty;
        if (meta.dirty != e.is_dirty && !probe_window) {
            fail("flushq-meta", detail::concat(
                     "l1[", idx, "] flush-queue entry 0x", std::hex,
                     e.addr, " snapshotted dirty=", e.is_dirty,
                     " but the array says dirty=", meta.dirty));
        }
    }

    // probe-invalidate: once the probe passed its invalidate-queue stage,
    // every queued entry on the probed line must reflect the downgrade.
    const ProbeUnit &probe = dc.probeUnit();
    if (probe.state == ProbeUnit::State::CheckConflicts ||
        probe.state == ProbeUnit::State::Respond) {
        for (const FlushQueueEntry &e : dc.flushQueue()) {
            if (e.addr != probe.line)
                continue;
            if (e.is_dirty) {
                fail("probe-invalidate", detail::concat(
                         "l1[", idx, "] probe on 0x", std::hex,
                         probe.line, " passed invalidate-queue but a "
                         "queued entry still claims dirty data"));
            }
            if (probe.cap == Cap::toN && e.is_hit) {
                fail("probe-invalidate", detail::concat(
                         "l1[", idx, "] toN probe on 0x", std::hex,
                         probe.line, " passed invalidate-queue but a "
                         "queued entry still claims a hit"));
            }
        }
    }

    // flush-counter conservation: counter == queued + in-FSHR CBO.X.
    unsigned busy_fshrs = 0;
    for (const Fshr &f : dc.fshrs())
        busy_fshrs += f.busy() ? 1 : 0;
    const unsigned expected =
        static_cast<unsigned>(dc.flushQueue().size()) + busy_fshrs;
    if (dc.flushCounter() != expected) {
        fail("flush-counter", detail::concat(
                 "l1[", idx, "] flush counter ", dc.flushCounter(),
                 " != ", dc.flushQueue().size(), " queued + ", busy_fshrs,
                 " in FSHRs"));
    }
}

void
CoherenceChecker::checkFshrFsm(std::size_t idx)
{
    const std::vector<Fshr> &fshrs = l1s_[idx]->fshrs();
    std::vector<Fshr::State> &prev = prev_fshr_[idx];
    for (std::size_t i = 0; i < fshrs.size(); ++i) {
        const Fshr::State from = prev[i];
        const Fshr::State to = fshrs[i].state;
        if (!fshrTransitionLegal(from, to)) {
            fail("fshr-fsm", detail::concat(
                     "l1[", idx, "] fshr", i, " took illegal transition ",
                     fshrStateName(from), " -> ", fshrStateName(to),
                     " (line 0x", std::hex, fshrs[i].req.addr, ")"));
        }
    }
}

void
CoherenceChecker::snapshotFshrStates(std::size_t idx)
{
    const std::vector<Fshr> &fshrs = l1s_[idx]->fshrs();
    for (std::size_t i = 0; i < fshrs.size(); ++i)
        prev_fshr_[idx][i] = fshrs[i].state;
}

void
CoherenceChecker::checkValues(std::size_t idx)
{
    const L1Arrays &arrays = l1s_[idx]->arrays();
    for (unsigned set = 0; set < arrays.sets(); ++set) {
        for (unsigned way = 0; way < arrays.ways(); ++way)
            checkLineValues(idx, set, way);
    }
}

bool
CoherenceChecker::checkLineValues(std::size_t idx, unsigned set,
                                  unsigned way)
{
    const L1Arrays &arrays = l1s_[idx]->arrays();
    const L1Meta &meta = arrays.meta(set, way);
    // Dirty lines are legitimately ahead of the levels below; busy lines
    // are mid-transaction and owe a check once they settle.
    if (!meta.valid() || meta.dirty)
        return false;
    const Addr line = arrays.addrOf(set, way);
    if (!lineQuiet(line))
        return true;
    // No registered home slice (an index policy naming a slice that was
    // never wired): nothing to compare against.
    const L2Cache *l2 = homeL2(line);
    if (l2 == nullptr)
        return false;
    const Directory &dir = l2->directory();
    const int l2_way = dir.findWay(line);
    if (l2_way < 0)
        return false; // inclusivity already reported it
    const unsigned l2_set = dir.setOf(line);
    const DirEntry &e = dir.entry(l2_set, static_cast<unsigned>(l2_way));
    bool failed = false;

    // value-coherence: a clean quiet L1 line is a byte-exact copy of the
    // L2's version (however either got it). A tag-only entry (exclusive
    // state policy) has no L2 bytes; the clean line's ground truth is
    // DRAM instead.
    const LineData &l1_bytes = arrays.data(set, way);
    if (e.data_resident) {
        const LineData &l2_bytes =
            l2->store().read(l2_set, static_cast<unsigned>(l2_way));
        if (std::memcmp(l1_bytes.data(), l2_bytes.data(), line_bytes) !=
            0) {
            failed = true;
            fail("value-coherence", detail::concat(
                     "l1[", idx, "] clean copy of 0x", std::hex, line,
                     " differs from the L2 copy"));
        }
    } else if (dram_ != nullptr) {
        const LineData dram_bytes = dram_->peekLine(line);
        if (std::memcmp(l1_bytes.data(), dram_bytes.data(), line_bytes) !=
            0) {
            failed = true;
            fail("value-coherence", detail::concat(
                     "l1[", idx, "] clean copy of 0x", std::hex, line,
                     " differs from DRAM (L2 entry is tag-only)"));
        }
    }

    // skip-soundness (§6): skip set on a clean line means no dirty copy
    // exists below — the negation of L2's dirty bit.
    if (cfg_.check_skip && meta.skip && e.dirty) {
        failed = true;
        fail("skip-soundness", detail::concat(
                 "l1[", idx, "] has skip set on clean 0x", std::hex, line,
                 " but the L2 copy is dirty"));
    }
    return failed;
}

void
CoherenceChecker::checkL2DramSweep()
{
    // A clean quiet L2 line must match the backing store byte for byte:
    // it was either filled from DRAM or written back to it, and the
    // llc_skip / Inval-discard shortcuts are only sound when this holds.
    // Too wide to run per cycle; checkNow()-only. Assumes no external
    // pokeLine() of resident lines (DMA-style tests poke then CBO.INVAL).
    if (l2s_.empty() || dram_ == nullptr)
        return;
    for (const L2Cache *l2 : l2s_) {
        const Directory &dir = l2->directory();
        const bool inclusive = l2->statePolicy() == StateKind::Inclusive;
        for (unsigned set = 0; set < dir.sets(); ++set) {
            for (unsigned way = 0; way < dir.ways(); ++way) {
                const DirEntry &e = dir.entry(set, way);
                if (!e.valid)
                    continue;
                const Addr line = dir.addrOf(set, way);

                // data-residency: an inclusive fill writes the store, so
                // every inclusive entry holds its line's bytes; under
                // either policy a dirty line must be backed by them.
                if (inclusive && !e.data_resident) {
                    fail("data-residency", detail::concat(
                             "L2 slice ", l2->sliceIndex(),
                             " entry 0x", std::hex, line,
                             " is tag-only in an inclusive L2"));
                }
                if (e.dirty && !e.data_resident) {
                    fail("data-residency", detail::concat(
                             "L2 slice ", l2->sliceIndex(),
                             " entry 0x", std::hex, line,
                             " is dirty but its bytes are not resident"));
                }

                if (e.dirty || !e.data_resident)
                    continue;
                if (!lineQuiet(line))
                    continue;
                const LineData dram_bytes = dram_->peekLine(line);
                const LineData &l2_bytes = l2->store().read(set, way);
                if (std::memcmp(l2_bytes.data(), dram_bytes.data(),
                                line_bytes) != 0) {
                    fail("value-coherence", detail::concat(
                             "L2 slice ", l2->sliceIndex(),
                             " clean copy of 0x", std::hex, line,
                             " differs from DRAM"));
                }
            }
        }
    }
}

void
CoherenceChecker::checkSliceRouting(DirScan scan)
{
    for (std::size_t k = 0; k < l2s_.size(); ++k) {
        const L2Cache *l2 = l2s_[k];
        std::optional<Addr> line =
            l2->firstForeignLine(scan == DirScan::Full);
        if (!line && scan == DirScan::Tracked && !foreign_[k].empty()) {
            // The lowest slot is the one a scan in (set, way) order
            // would find first.
            const Directory &dir = l2->directory();
            const std::size_t slot = *foreign_[k].begin();
            line = dir.addrOf(static_cast<unsigned>(slot / dir.ways()),
                              static_cast<unsigned>(slot % dir.ways()));
        }
        if (line) {
            fail("slice-routing", detail::concat(
                     "L2 slice ", l2->sliceIndex(),
                     scan != DirScan::None ? " holds" : " is working on",
                     " line 0x", std::hex, *line, " which homes to slice ",
                     std::dec, l2->indexPolicy().sliceOf(lineAlign(*line))));
        }
    }
}

void
CoherenceChecker::checkGlobalFlushCounter()
{
    if (l1s_.empty())
        return;
    std::uint64_t counters = 0;
    std::uint64_t expected = 0;
    for (const DataCache *l1 : l1s_) {
        counters += l1->flushCounter();
        expected += l1->flushQueue().size();
        if (!l1->fshrsIdle()) {
            for (const Fshr &f : l1->fshrs())
                expected += f.busy() ? 1 : 0;
        }
    }
    if (counters != expected) {
        fail("flush-counter-global", detail::concat(
                 "summed flush counters ", counters, " != ", expected,
                 " total queued + in-FSHR CBO.X across all L1s"));
    }
}

} // namespace skipit::verify
