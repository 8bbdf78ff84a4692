/**
 * @file
 * The stall watchdog: turns the paper's interlock deadlock-freedom
 * arguments (§5.4: probe_rdy / wb_rdy / flush_rdy never cycle) into a
 * runtime-checkable property.
 *
 * Registered components (L1 caches, the L2) enumerate their busy
 * resources — FSHRs, MSHRs, flush-queue entries — as fingerprinted
 * snapshots. The watchdog scans every scan_interval cycles; a resource
 * whose fingerprint has not changed for stall_threshold cycles is flagged
 * as stalled, reported once, and — when a TxnTracer is attached — its
 * occupying transaction's full event history is dumped.
 *
 * A resource is tracked by (component, kind, index). The tracked list
 * stays sorted by that key, and each scan merges the sorted snapshots
 * into it, so a scan allocates nothing once its vectors have grown to
 * the busiest scan's size. Names and descriptions are formatted only
 * for a report.
 *
 * The watchdog never mutates simulated state, so enabling it cannot
 * change cycle counts.
 */

#ifndef SKIPIT_SIM_WATCHDOG_HH
#define SKIPIT_SIM_WATCHDOG_HH

#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "probe.hh"
#include "simulator.hh"
#include "ticked.hh"

namespace skipit {

class TxnTracer;

/** Watchdog parameters. */
struct WatchdogConfig
{
    bool enabled = true;
    /** Cycles a busy resource's state may remain unchanged before it is
     *  reported as stalled. Must comfortably exceed the longest legal
     *  wait (a full flush queue draining through contended FSHRs). */
    Cycle stall_threshold = 100'000;
    /** Cycles between scans; bounds detection latency and scan cost. */
    Cycle scan_interval = 512;
    /** Exit non-zero after the first stall report instead of continuing:
     *  CI and fuzz runs want a stall to fail the job, not scroll past. */
    bool fatal = false;
};

/** One detected stall. */
struct StallRecord
{
    std::string resource;
    TxnId txn = 0;
    Cycle stuck_since = 0;  //!< first scan that saw this fingerprint
    Cycle reported_at = 0;
    std::string describe;
};

/** See file comment. */
class Watchdog : public Ticked
{
  public:
    Watchdog(std::string name, Simulator &sim, const WatchdogConfig &cfg);

    /** Register a component whose resources should be monitored. */
    void watch(const probe::Inspectable &component);

    /** Attach a tracer so stall reports include transaction histories. */
    void setTracer(const TxnTracer *tracer) { tracer_ = tracer; }

    /** Redirect report output (default std::cerr). nullptr resets. */
    void setStream(std::ostream *os) { os_ = os; }

    /**
     * Hook appended to every stall report, before any fatal exit. The SoC
     * wires this to the coherence checker so a stall report comes with a
     * full invariant sweep (sim/ cannot depend on verify/ directly).
     */
    void setEscalation(std::function<void(std::ostream &)> fn)
    {
        escalation_ = std::move(fn);
    }

    void tick() override;
    Cycle nextWake() const override;

    /** Number of distinct stalls reported so far. */
    std::size_t stallsDetected() const { return stalls_.size(); }
    const std::vector<StallRecord> &stalls() const { return stalls_; }

  private:
    /** A resource's identity across scans. */
    struct Key
    {
        unsigned component = 0; //!< index into components_
        const char *kind = "";
        std::uint64_t index = 0;
    };

    struct Tracked
    {
        Key key;
        std::uint64_t fingerprint = 0;
        Cycle since = 0;     //!< scan cycle the fingerprint was first seen
        bool reported = false;
    };

    /** Order by component, kind text, then index. */
    static bool keyLess(const Key &a, const Key &b);

    Simulator &sim_;
    WatchdogConfig cfg_;
    std::vector<const probe::Inspectable *> components_;
    /** Resources busy at the last scan, sorted by key. */
    std::vector<Tracked> tracked_;
    std::vector<StallRecord> stalls_;
    std::function<void(std::ostream &)> escalation_;
    const TxnTracer *tracer_ = nullptr;
    std::ostream *os_ = nullptr;
    Cycle next_scan_ = 0;

    /// @name Per-scan scratch, reused
    /// @{
    std::vector<probe::ResourceSnapshot> snaps_;
    std::vector<Key> keys_;         //!< keys_[i] identifies snaps_[i]
    std::vector<std::size_t> order_; //!< snaps_ indices sorted by key
    std::vector<Tracked> next_;     //!< the rebuilt tracked_
    /** (snaps_ index, stuck since) of each stall to report. */
    std::vector<std::pair<std::size_t, Cycle>> due_;
    /// @}

    void scan();
    void report(const probe::ResourceSnapshot &snap, const Key &key,
                Cycle since);
};

} // namespace skipit

#endif // SKIPIT_SIM_WATCHDOG_HH
