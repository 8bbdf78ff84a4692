/**
 * @file
 * The load-store unit (§3.2), simplified to its memory-ordering essence.
 *
 * The LSU keeps an in-order window of dispatched memory operations.
 *  - Loads fire out of order as soon as no older fence is pending; a load
 *    whose word was written by an older in-window store forwards from the
 *    store buffer instead of firing.
 *  - STQ requests (stores and CBO.X) fire strictly in program order, only
 *    once everything older has completed — this models BOOM firing STQ
 *    entries when the ROB head reaches them (§3.2, §5.1), and is the
 *    property that makes writebacks ordered behind all earlier writes
 *    (§4: "similar to x86").
 *  - Fences complete when every older operation is done AND the data
 *    cache's flushing signal is low (§5.3 Fences).
 *  - A nacked request retries after a short backoff (§3.3).
 */

#ifndef SKIPIT_CORE_LSU_HH
#define SKIPIT_CORE_LSU_HH

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "l1/data_cache.hh"
#include "mem_op.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/ticked.hh"

namespace skipit {

/** LSU parameters. */
struct LsuConfig
{
    unsigned window = 32;       //!< LDQ/STQ entries (SonicBOOM: 32 each)
    unsigned fires_per_cycle = 2; //!< requests fired per cycle (§3.2)
    Cycle retry_backoff = 4;    //!< cycles before retrying after a nack
};

/**
 * The per-core LSU. The Hart dispatches MemOps in program order; the LSU
 * fires them into the data cache under the ordering rules above and
 * reports each operation's completion.
 */
class Lsu : public Ticked
{
  public:
    /** @param source the TileLink source (agent) id of the core this LSU
     *  belongs to; stamped on every CpuReq so the data cache can assert
     *  that requests arrive at the port matching their origin once the
     *  memory side is a routed crossbar. */
    Lsu(std::string name, Simulator &sim, const LsuConfig &cfg,
        DataCache &dcache, Stats &stats, AgentId source = invalid_agent);

    void tick() override;
    Cycle nextWake() const override;

    /** Can another op be dispatched this cycle? */
    bool canDispatch() const { return window_.size() < cfg_.window; }

    /**
     * Dispatch @p op in program order.
     * @return a ticket identifying the op for completion queries
     */
    std::uint64_t dispatch(const MemOp &op);

    /** Has the op with @p ticket completed? */
    bool isDone(std::uint64_t ticket) const;

    /** Value returned by a completed load. */
    std::uint64_t loadValue(std::uint64_t ticket) const;

    /** True when no dispatched operation remains incomplete. */
    bool empty() const { return window_.empty(); }

    /** Drop recorded load results (between benchmark phases). */
    void clearResults() { load_results_.clear(); }

    std::size_t inWindow() const { return window_.size(); }

  private:
    enum class EntryState { Waiting, Fired, Done };

    struct Entry
    {
        MemOp op;
        std::uint64_t ticket = 0;
        TxnId txn = 0;
        EntryState state = EntryState::Waiting;
        Cycle retry_at = 0;
        std::uint64_t load_value = 0;
    };

    Simulator &sim_;
    LsuConfig cfg_;
    DataCache &dcache_;
    AgentId source_;

    /** Registered with Stats under "<name>." ("core0.lsu."). */
    struct Counters
    {
        std::uint64_t retries = 0;
        std::uint64_t fences = 0;
        std::uint64_t stl_forwards = 0;
    };
    Counters ctr_;

    std::deque<Entry> window_;
    std::uint64_t next_ticket_ = 1;
    std::uint64_t retired_upto_ = 0; //!< all tickets <= this are done
    std::unordered_map<std::uint64_t, std::uint64_t> load_results_;

    void drainResponses();
    void fire();
    void retire();

    Entry *entryForTicket(std::uint64_t ticket);
    /** Would fire() act on entry @p idx this cycle? Mirrors its guards. */
    bool fireableNow(std::size_t idx) const;
    /** Latest older in-window store writing exactly the load's word. */
    const Entry *forwardingStore(std::size_t load_idx) const;
    bool olderAllDone(std::size_t idx) const;
    bool olderFencePending(std::size_t idx) const;

    CpuReq toCpuReq(const Entry &e) const;
};

} // namespace skipit

#endif // SKIPIT_CORE_LSU_HH
