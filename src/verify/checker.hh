/**
 * @file
 * The global coherence invariant checker (the runtime half of the paper's
 * correctness argument).
 *
 * Registered on the SoC like the watchdog — last in tick order, never
 * mutating simulated state — the checker holds, at the end of every
 * executed cycle, the invariants the paper argues on paper:
 *
 *  - "swmr"             single-writer / multi-reader across L1s (§2.2):
 *                       at most one Trunk per line, a Trunk is the sole
 *                       holder, and only a Trunk may be dirty.
 *  - "inclusivity"      every line an L1 holds is resident in the L2
 *                       directory and recorded for that holder (§3.4);
 *                       an L1 Trunk must be the directory's trunk. (The
 *                       directory may transiently record *more* permission
 *                       than an L1 still has — shrink reports are applied
 *                       at C-channel arrival — but never less.)
 *  - "flushq-meta"      flush-queue snapshots agree with the array: a
 *                       hit entry's line is resident with the snapshotted
 *                       dirty bit, and a dirty entry is a hit (§5.2/§5.4,
 *                       maintained by the probe_invalidate interlock).
 *  - "probe-invalidate" once a probe has passed its invalidate-queue
 *                       stage, no queued entry on the probed line still
 *                       claims dirty data (or, for a toN probe, a hit).
 *  - "fshr-fsm"         FSHR transitions follow the six-state machine of
 *                       Figure 7 (§5.2).
 *  - "flush-counter"    flush counter == queued + in-FSHR CBO.X (§5.3).
 *  - "value-coherence"  a clean quiet L1 line's bytes equal the L2 copy;
 *                       a clean quiet L2 line's bytes equal DRAM. The
 *                       hierarchy agreement chain is the checker's shadow
 *                       memory oracle: together with the fuzzer's
 *                       per-word program-order oracle it gives end-to-end
 *                       load-value checking.
 *  - "skip-soundness"   a set skip bit on a clean quiet line implies no
 *                       dirty copy below and bytes identical to DRAM (§6).
 *  - "slice-routing"    with an address-interleaved L2, every line a
 *                       slice works on (MSHR request, eviction victim,
 *                       buffered RootRelease, or — in deep sweeps —
 *                       directory residence) homes to that slice; a hit
 *                       means a link misrouted a request.
 *  - "flush-counter-global" the summed flush counters across all L1s
 *                       equal the summed queue + FSHR occupancy — the
 *                       machine-wide fence progress ledger stays
 *                       conserved even when one flush epoch's
 *                       RootReleases fan out across several slices.
 *
 * Value/skip checks only fire on *quiet* lines (no FSHR, flush-queue
 * entry, probe, writeback, MSHR or L2 transaction in flight on the line):
 * while a transaction is mid-flight the levels legitimately disagree.
 * Structural invariants hold unconditionally every cycle.
 *
 * The checker reads end-of-cycle state only; with fast-forward enabled it
 * still observes every state change, because skipped cycles are provably
 * idle. Enabling it never changes simulated timing.
 *
 * Incremental checking. The per-line invariants (swmr, inclusivity,
 * value-coherence, skip-soundness) read only state that changes through
 * four write paths, each of which marks a ChangeLog (sim/change_log.hh)
 * only when the value it stores differs: L1Arrays::write(),
 * Directory::write() (which also records the line the entry held
 * before), BankedStore::write() and Dram's store writes. Each executed
 * cycle, tick() drains the logs and marks every changed line in every
 * L1 that holds it, then runs swmr/inclusivity on the marked lines plus
 * the lines that failed last cycle (a failing line stays marked), in
 * the full sweep's (L1, set, way) order. A line's verdict can change
 * only when something it reads changes, and a failing line is
 * re-reported every cycle, so the violation sequence is the one a full
 * sweep gives. Value and skip checks keep their value_interval cadence
 * but visit only the lines that still owe one: changed since their last
 * quiet pass, still busy, or failing. The first tick is a full pass, and
 * checkNow() always covers everything.
 *
 * The flush-unit checks (flushq-meta, probe-invalidate, flush-counter,
 * fshr-fsm) of an L1 read its flush queue, FSHR states, probe unit and
 * flush counter, and the array lines of its queued entries. Every write
 * to the former bumps DataCache::flushUnitVersion(). tick() runs them
 * for an L1 only when its version moved since its last check, when its
 * array change log is non-empty while its queue is not, or when they
 * reported a violation at its last check. Otherwise nothing they read
 * changed since a check that passed, so they would pass again: the FSHR
 * snapshot equals the current states (self loops only). A failing L1 is
 * re-checked, and so re-reported, in every executed cycle, which keeps
 * the violation sequence. flush-counter-global runs when some L1's
 * version moved or it failed last cycle.
 *
 * slice-routing reads the in-flight lines of every slice in every
 * executed cycle. The deep check at value-sweep cadence also reads the
 * directory: each slice of a multi-slice L2 keeps the set of its
 * directory slots that hold a line homing elsewhere, updated from the
 * directory change log, and the lowest slot is the line a scan in
 * (set, way) order finds first. checkNow() scans every entry.
 *
 * The rule this rests on: state the checker reads changes only through
 * write() (L1 arrays, the directory, the BankedStore, DRAM), and every
 * flush-unit write bumps the version.
 * tests/verify/test_checker_incremental.cc is the oracle that fails
 * when a change bypasses either, or when a log marks what no write
 * changed.
 */

#ifndef SKIPIT_VERIFY_CHECKER_HH
#define SKIPIT_VERIFY_CHECKER_HH

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "l1/structures.hh"
#include "sim/change_log.hh"
#include "sim/simulator.hh"
#include "sim/ticked.hh"
#include "sim/types.hh"

namespace skipit {
class DataCache;
class L2Cache;
class Dram;
} // namespace skipit

namespace skipit::verify {

/** Checker parameters. */
struct CheckerConfig
{
    bool enabled = true;
    /** Panic on the first violation (tests, CI) instead of latching it
     *  for later inspection (fuzzing, watchdog escalation). */
    bool fatal = true;
    /** Check skip-bit soundness. The SoC clears this automatically for
     *  configurations where the skip bit is genuinely unsound (skip_it
     *  without grant_data_dirty, reachable through the ablation axes). */
    bool check_skip = true;
    /** Executed cycles between value sweeps (structural invariants run
     *  every cycle). Quiet-line bytes cannot change while quiet, so
     *  sampling only delays detection; checkNow() always sweeps. */
    Cycle value_interval = 16;
    /** Latched-violation cap when not fatal. */
    std::size_t max_violations = 64;
};

/** One detected invariant violation. */
struct Violation
{
    Cycle cycle = 0;
    std::string invariant; //!< named key, e.g. "probe-invalidate"
    std::string detail;
};

/** See file comment. */
class CoherenceChecker : public Ticked
{
  public:
    CoherenceChecker(std::string name, Simulator &sim,
                     const CheckerConfig &cfg);

    /// @name Wiring (SoC construction; all optional)
    /// @{
    void addL1(const DataCache &l1);
    /** Register one L2 slice; call once per slice in slice-index order
     *  (a single call for the monolithic slices=1 L2). */
    void setL2(const L2Cache &l2) { l2s_.push_back(&l2); }
    void setDram(const Dram &dram) { dram_ = &dram; }
    /// @}

    /** An observer: it never makes a cycle execute, and it runs in every
     *  executed cycle, the only cycles in which state can change. */
    void tick() override;

    /**
     * Exhaustive sweep right now: every structural invariant, every value
     * invariant, plus the full L2-vs-DRAM clean-line agreement scan that
     * is too wide to run per cycle. Honors CheckerConfig::fatal.
     * @return number of new violations found (0 when fatal, it panics)
     */
    std::size_t checkNow();

    /** Non-fatal exhaustive sweep + report, for watchdog escalation. */
    void escalate(std::ostream &os);

    bool clean() const { return violations_.empty(); }
    const std::vector<Violation> &violations() const { return violations_; }
    /** Executed cycles the checker has examined. */
    std::uint64_t checksRun() const { return checks_run_; }
    void report(std::ostream &os) const;

  private:
    Simulator &sim_;
    CheckerConfig cfg_;
    std::vector<const DataCache *> l1s_;
    /** L2 slices in slice-index order; one entry when slices=1. */
    std::vector<const L2Cache *> l2s_;
    const Dram *dram_ = nullptr;

    std::vector<Violation> violations_;
    std::uint64_t checks_run_ = 0;
    /** fail() calls so far: tick() compares it around a check to learn
     *  whether the check reported. */
    std::uint64_t reported_ = 0;
    /** FSHR states at each L1's last flush-unit check, for transition
     *  checking. */
    std::vector<std::vector<Fshr::State>> prev_fshr_;
    /** Per L1: its flushUnitVersion() at its last flush-unit check. */
    std::vector<std::uint64_t> flush_seen_;
    /** Bit i: L1 i's last flush-unit check reported a violation. */
    std::uint64_t flush_failing_ = 0;
    /** Bit i: L1 i's array change log was non-empty this cycle. */
    std::uint64_t arrays_changed_ = 0;
    /** The last flush-counter-global check reported a violation. */
    bool global_failing_ = false;
    /** Per slice of a multi-slice L2: the directory slots (set * ways +
     *  way) holding a line that homes to another slice. */
    std::vector<std::set<std::size_t>> foreign_;
    /** When non-null, fail() collects here instead of panicking. */
    std::vector<Violation> *collect_ = nullptr;

    /** Per-L1 incremental state; a slot is set * ways + way. */
    struct L1Work
    {
        /** Slots owing swmr/inclusivity: changed, or failed last cycle. */
        ChangeLog recheck;
        ChangeLog owing; //!< slots owing a value check
    };
    std::vector<L1Work> work_;
    /** False until the first tick, which checks every slot. */
    bool primed_ = false;
    /** Scratch: a log's slots in the full sweep's order. */
    std::vector<std::size_t> order_;

    /** Turn the components' change logs into per-L1 slot marks and
     *  foreign-slot updates. */
    void drainChanges();
    /** Re-derive whether directory @p slot of slice @p slice is in
     *  foreign_. */
    void trackForeign(std::size_t slice, std::size_t slot);
    /** Mark @p line in every L1 that holds it. */
    void markLine(Addr line);
    void markSlot(std::size_t idx, std::size_t slot);
    const std::vector<std::size_t> &sortedSlots(const ChangeLog &log);

    /** Full sweeps (checkNow): every slot of L1 @p idx. */
    void checkL1Structural(std::size_t idx);
    void checkValues(std::size_t idx);
    /** swmr + inclusivity for one L1 slot. @return true on a violation */
    bool checkLineStructural(std::size_t idx, unsigned set, unsigned way);
    /** value-coherence + skip-soundness for one L1 slot.
     *  @return true while the slot still owes a check (busy or failed) */
    bool checkLineValues(std::size_t idx, unsigned set, unsigned way);
    /** flushq-meta, probe-invalidate and flush-counter for L1 @p idx. */
    void checkL1Queues(std::size_t idx);
    void checkFshrFsm(std::size_t idx);
    void checkL2DramSweep();
    /** What checkSliceRouting() reads of the directories. */
    enum class DirScan
    {
        None,    //!< in-flight lines only (every executed cycle)
        Tracked, //!< plus the foreign-slot sets (value-sweep cadence)
        Full,    //!< plus every directory entry (checkNow)
    };
    /** slice-routing: no slice works on a line homing to a sibling,
     *  and, unless @p scan is None, no slice holds one. */
    void checkSliceRouting(DirScan scan);
    /** flush-counter-global: machine-wide counter conservation. */
    void checkGlobalFlushCounter();
    /** Record L1 @p idx's FSHR states for its next fshr-fsm check. */
    void snapshotFshrStates(std::size_t idx);

    /** The slice whose address range contains @p line (null if none). */
    const L2Cache *homeL2(Addr line) const;

    /** Is any machinery in the whole hierarchy working on @p line? */
    bool lineQuiet(Addr line) const;

    void fail(const char *invariant, std::string detail);
};

} // namespace skipit::verify

#endif // SKIPIT_VERIFY_CHECKER_HH
