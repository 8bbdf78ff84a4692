/**
 * @file
 * Power-failure injection and the durability oracle (the runtime half of
 * the paper's §6 soundness argument).
 *
 * Persist-domain contract (docs/ROBUSTNESS.md "Crash model"):
 *
 *  - DURABLE: the DRAM backing store, plus every write already accepted
 *    into the DRAM controller queue (ADR semantics — the controller
 *    drains its accepted write queue on standby power).
 *  - VOLATILE: L1 data / dirty / skip bits, the flush queue, FSHRs,
 *    MSHRs, the L2 slices (data and directory), and every TileLink
 *    message in flight or waiting at a slice.
 *
 * A crash freezes the persist-domain image at the start of the first
 * executed cycle >= the trigger (SoCConfig::durability: a cycle number,
 * or the first probe event on a named stage). Fast-forwarded cycles are
 * provably idle, so freezing at the next executed cycle yields the exact
 * image of the requested cycle.
 *
 * The oracle audits four claims, fed purely by probe-hub events so it is
 * observer-only and cycle-neutral (enabling it never changes a cycle
 * count):
 *
 *  - "skip-drop"        a skip-elided writeback (l1.skipit) was sound at
 *                       elision time: the dropped line's bytes already
 *                       equal the persist-domain copy (§6.1).
 *  - "skip-set"         a skip bit set on clean-ack (persist.skipset)
 *                       marks a line whose bytes equal the persist-domain
 *                       copy at set time (§6).
 *  - "completion-durability" a data-carrying CBO completion
 *                       (persist.complete) was preceded by a DRAM write
 *                       of exactly the data its FSHR captured
 *                       (persist.wb.data fingerprint) — the RootRelease
 *                       path may not ack before the data reached the
 *                       persist domain. CBO.INVAL is exempt (its contract
 *                       discards dirty data).
 *  - "durability"       at crash time: every obligation the issuing hart
 *                       observed complete (a fence retired after the CBO
 *                       completed, before the crash) still has its
 *                       flushed value in the frozen image, unless a later
 *                       accepted write legitimately superseded it.
 *
 * The freezer ticks *before* the DRAM controller, so the image is
 * captured before any cycle-C activity; the oracle ticks last, after
 * every component has emitted the cycle's events.
 */

#ifndef SKIPIT_VERIFY_DURABILITY_HH
#define SKIPIT_VERIFY_DURABILITY_HH

#include <cstddef>
#include <ostream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "checker.hh"
#include "sim/simulator.hh"
#include "sim/ticked.hh"
#include "sim/types.hh"
#include "tilelink/messages.hh"

namespace skipit {
class DataCache;
class L2Cache;
class Dram;
} // namespace skipit

namespace skipit::verify {

/** Power-failure injection + durability oracle parameters. */
struct DurabilityConfig
{
    /** Master switch. Off by default: the oracle is observer-only and
     *  cycle-neutral, but it allocates ledgers proportional to the CBO
     *  traffic, so it is opt-in like the tracer rather than always-on
     *  like the checker. */
    bool enabled = false;
    /** Crash (freeze the persist-domain image) at the start of the first
     *  executed cycle >= this. 0 = no cycle trigger. */
    Cycle crash_at = 0;
    /** Crash at the cycle boundary after the first probe event whose
     *  stage equals this string (e.g. "l1.skipit"). Empty = off. */
    std::string crash_on_stage;
    /** Panic on the first violation instead of latching it. */
    bool fatal = true;
    /** Latched-violation cap when not fatal. */
    std::size_t max_violations = 64;
};

/** What the persist domain looked like when the power failed. */
struct PersistSummary
{
    bool crashed = false;
    Cycle crash_cycle = 0;
    std::size_t image_lines = 0;     //!< distinct lines in the image
    std::size_t pending_writes = 0;  //!< accepted queue writes (durable)
    std::size_t dirty_l1_lines = 0;  //!< volatile dirty data: lost
    std::size_t dirty_l2_lines = 0;  //!< volatile dirty data: lost
    std::size_t busy_fshrs = 0;      //!< CBOs in flight at crash
    std::size_t queued_cbos = 0;     //!< flush-queue entries at crash
    std::size_t sealed_claims = 0;   //!< fence-observed durability claims
};

/** See file comment. */
class DurabilityOracle : public Ticked, public probe::Sink
{
  public:
    DurabilityOracle(std::string name, Simulator &sim,
                     const DurabilityConfig &cfg);

    /// @name Wiring (SoC construction)
    /// @{
    void addL1(const DataCache &l1);
    void setL2(const L2Cache &l2) { l2s_.push_back(&l2); }
    void setDram(const Dram &dram) { dram_ = &dram; }
    /// @}

    /** Post-phase tick: consume the cycle's event stream, run the online
     *  soundness checks, arm the event-triggered crash. */
    void tick() override;

    /** probe::Sink: buffer an event for this cycle's tick(). */
    void onEvent(const probe::Event &e) override;

    /** Pre-phase trigger, called by the CrashFreezer before the DRAM
     *  controller ticks: freeze + audit once the crash point is due. */
    void freezeTick();

    /**
     * Freeze the image and run the crash audit right now. Runners call
     * this when a crash was armed but the machine quiesced before the
     * crash cycle (the image can no longer change, so the audit result
     * is identical). No-op if already crashed or not enabled.
     */
    void crashNow();

    bool crashed() const { return summary_.crashed; }
    Cycle crashCycle() const { return summary_.crash_cycle; }
    /** The frozen post-crash image; valid once crashed(). */
    const std::unordered_map<Addr, LineData> &image() const
    {
        return image_;
    }
    const PersistSummary &summary() const { return summary_; }
    /** Human-readable persist-domain summary (frozen state if crashed,
     *  live state otherwise) — watchdog reports and replay bundles. */
    void reportSummary(std::ostream &os) const;

    /** Fences hart @p hart retired before the crash (or so far, when no
     *  crash happened). Fences retire in program order, so a harness
     *  that knows the program can map this count to the op index of the
     *  last retired fence — the basis of the fuzzer's word-level crash
     *  oracle. */
    std::uint64_t fencesRetired(unsigned hart) const
    {
        return hart < fences_.size() ? fences_[hart] : 0;
    }

    bool clean() const { return violations_.empty(); }
    const std::vector<Violation> &violations() const
    {
        return violations_;
    }
    void report(std::ostream &os) const;

  private:
    /** A data-carrying CBO's promise: make @p fp durable on @p line. */
    struct Obligation
    {
        Addr line = 0;
        std::uint64_t fp = 0;
        /** Global sequence of the DRAM write that discharged it. */
        std::uint64_t wb_seq = 0;
        /** Write-sequence horizon at capture: any same-line DRAM write
         *  with seq >= this is coherence-newer than the captured data
         *  and legitimately discharges the promise (a racing store can
         *  merge into the writeback on its way down). */
        std::uint64_t capture_seq = 0;
    };

    Simulator &sim_;
    DurabilityConfig cfg_;
    std::vector<const DataCache *> l1s_;
    std::vector<const L2Cache *> l2s_;
    const Dram *dram_ = nullptr;

    std::vector<probe::Event> pending_;   //!< this cycle's events
    std::vector<Violation> violations_;

    /** persist.wb.data by txn: data fingerprint each in-flight
     *  data-carrying CBO promised to persist. */
    std::unordered_map<TxnId, Obligation> wb_data_;
    /** (txn, fp) pairs that reached the DRAM controller. */
    std::unordered_set<std::uint64_t> durable_;
    /** Per-line sequence + fingerprint of the last issued DRAM write. */
    struct LastWrite
    {
        std::uint64_t seq = 0;
        std::uint64_t fp = 0;
    };
    std::unordered_map<Addr, LastWrite> line_last_write_;
    std::uint64_t next_seq_ = 1;

    /** Completed-but-not-yet-fence-observed obligations, per hart. */
    std::vector<std::vector<Obligation>> completed_;
    /** Per-hart count of retired fences seen pre-crash. */
    std::vector<std::uint64_t> fences_;
    /** Fence-observed claims: per line, the latest sealed obligation. */
    std::unordered_map<Addr, Obligation> sealed_;

    /** Event-trigger arm point (crash_on_stage); 0 = not armed. */
    Cycle armed_crash_at_ = 0;

    std::unordered_map<Addr, LineData> image_;
    PersistSummary summary_;

    void process(const probe::Event &e);
    void audit();
    /** Scan the current machine state into a summary. */
    PersistSummary scanSummary() const;
    /** The persist-domain bytes of @p line right now. */
    std::uint64_t persistLineFp(Addr line) const;
    std::vector<Obligation> &completedFor(unsigned hart);
    void fail(const char *invariant, std::string detail);
    static std::uint64_t durableKey(TxnId txn, std::uint64_t fp);
};

/**
 * The crash trigger: a pre-phase component registered *before* the DRAM
 * controller so the image freezes at the start of the crash cycle. An
 * observer: it never makes a cycle execute, and skipped cycles are
 * provably idle, so freezing at the next executed cycle yields the
 * identical image — which is what keeps the crash knob cycle-neutral
 * too.
 */
class CrashFreezer : public Ticked
{
  public:
    CrashFreezer(std::string name, DurabilityOracle &oracle)
        : Ticked(std::move(name), Role::Observer), oracle_(oracle)
    {
    }

    void tick() override { oracle_.freezeTick(); }

  private:
    DurabilityOracle &oracle_;
};

} // namespace skipit::verify

#endif // SKIPIT_VERIFY_DURABILITY_HH
