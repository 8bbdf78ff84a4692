/**
 * @file
 * The transaction tracer: a probe sink that records every lifecycle event
 * per transaction, derives per-stage latency histograms from Begin/End
 * pairs and Spans, and exports the whole run as Chrome trace-event JSON
 * (openable in chrome://tracing or Perfetto, one row per hart / FSHR /
 * L2-MSHR / DRAM / TileLink channel).
 */

#ifndef SKIPIT_SIM_TXN_TRACER_HH
#define SKIPIT_SIM_TXN_TRACER_HH

#include <map>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "histogram.hh"
#include "probe.hh"

namespace skipit {

/** Records transaction events; see file comment. */
class TxnTracer : public probe::Sink
{
  public:
    /**
     * @param keep_events retain the full per-transaction event log (needed
     *        for Chrome export and watchdog dumps). Disable to keep only
     *        the histograms on very long runs.
     */
    explicit TxnTracer(bool keep_events = true)
        : keep_events_(keep_events)
    {
    }

    void onEvent(const probe::Event &e) override;

    /// @name Per-transaction history
    /// @{
    /** All recorded events of @p txn, in emission order. */
    std::vector<probe::Event> eventsFor(TxnId txn) const;

    /** Total number of recorded events. */
    std::size_t eventCount() const { return events_.size(); }

    /** The full event log in emission order (equivalence testing). */
    const std::vector<probe::Event> &events() const { return events_; }

    /** Print one transaction's event history, one line per event. */
    void dumpTxn(TxnId txn, std::ostream &os,
                 const char *indent = "  ") const;
    /// @}

    /// @name Stage-latency histograms
    /// @{
    /** Histograms keyed by stage name ("l1.fshr", "l2.mshr", ...). */
    const std::map<std::string, Histogram> &histograms() const
    {
        return hists_;
    }

    /** The histogram for @p stage; nullptr when no sample was recorded. */
    const Histogram *histogram(const std::string &stage) const;

    /** Summaries plus bucket bars for every stage, in name order. */
    void dumpHistograms(std::ostream &os) const;
    /// @}

    /// @name Chrome trace-event export
    /// @{
    void writeChromeTrace(std::ostream &os) const;
    /// @}

  private:
    bool keep_events_;
    std::vector<probe::Event> events_; //!< full log, emission order
    /** Event indices per transaction (empty when !keep_events_). */
    std::unordered_map<TxnId, std::vector<std::size_t>> by_txn_;
    /** Open Begin cycles per (stage, txn), for latency pairing. */
    std::map<std::pair<std::string, TxnId>, std::vector<Cycle>> open_;
    std::map<std::string, Histogram> hists_;
    Cycle last_cycle_ = 0;

    static std::string jsonEscape(const std::string &s);
};

} // namespace skipit

#endif // SKIPIT_SIM_TXN_TRACER_HH
