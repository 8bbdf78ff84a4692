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
#include <vector>

#include "l1/data_cache.hh"
#include "mem_op.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/ticked.hh"

namespace skipit {

/** LSU parameters. */
struct LsuConfig
{
    unsigned window = 32;       //!< LDQ/STQ size, 1..64 (SonicBOOM: 32 each)
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
     *  that requests arrive at the cache owning that source id. */
    Lsu(std::string name, Simulator &sim, const LsuConfig &cfg,
        DataCache &dcache, Stats &stats, AgentId source = invalid_agent);

    void tick() override;
    Cycle nextWake() const override;

    /** The hart: woken when retirement frees window entries, which
     *  raises canDispatch() and empty(). */
    void setDispatcher(Ticked &hart) { dispatcher_ = &hart; }

    /** Can another op be dispatched this cycle? */
    bool canDispatch() const { return count_ < cfg_.window; }

    /**
     * Dispatch @p op in program order.
     * @return a ticket identifying the op for completion queries
     */
    std::uint64_t dispatch(const MemOp &op);

    /** Value returned by a completed load. */
    std::uint64_t loadValue(std::uint64_t ticket) const;

    /** True when no dispatched operation remains incomplete. */
    bool empty() const { return count_ == 0; }

    /** Drop recorded load results (between benchmark phases). */
    void
    clearResults()
    {
        load_results_.clear();
        results_base_ = retired_upto_ + 1;
    }

  private:
    struct Entry
    {
        MemOp op;
        std::uint64_t ticket = 0;
        TxnId txn = 0;
        Cycle retry_at = 0;
    };

    /** What fire() does with a waiting entry this cycle. */
    enum class Action { Wait, Fire, Forward, Release };

    struct Decision
    {
        Action action = Action::Wait;
        unsigned from = 0; //!< Forward: the store's window position
    };

    Simulator &sim_;
    LsuConfig cfg_;
    DataCache &dcache_;
    AgentId source_;
    Ticked *dispatcher_ = nullptr;

    /** Registered with Stats under "<name>." ("core0.lsu."). */
    struct Counters
    {
        std::uint64_t retries = 0;
        std::uint64_t fences = 0;
        std::uint64_t stl_forwards = 0;
    };
    Counters ctr_;

    /**
     * The window: a ring of cfg.window entries, the oldest at head_.
     * Window position p (0 = oldest) is bit p of each mask below, so a
     * mask shifts right as the head retires. Tickets are dense, so
     * ticket t sits at position t - retired_upto_ - 1.
     */
    std::vector<Entry> ring_;
    unsigned head_ = 0;
    unsigned count_ = 0;
    std::uint64_t waiting_ = 0;  //!< not fired, or nacked and backing off
    std::uint64_t not_done_ = 0; //!< waiting or fired
    std::uint64_t load_ = 0;
    std::uint64_t fence_ = 0;
    std::uint64_t store_ = 0;
    std::uint64_t retired_upto_ = 0; //!< all tickets <= this have retired

    struct LoadResult
    {
        std::uint64_t value = 0;
        bool done = false;
    };
    /** Completed loads' values, indexed by ticket - results_base_: the
     *  tickets handed out since clearResults() are dense. */
    std::vector<LoadResult> load_results_;
    std::uint64_t results_base_ = 1;

    void drainResponses();
    void fire();
    void retire();
    void recordLoad(std::uint64_t ticket, std::uint64_t value);

    /** Ring index of window position @p pos. */
    unsigned slot(unsigned pos) const;
    /** The waiting entries that decide() might let act this cycle. */
    std::uint64_t candidates() const;
    /** The firing rules, shared by fire() and nextWake(). */
    Decision decide(unsigned pos) const;

    CpuReq toCpuReq(const Entry &e) const;
};

} // namespace skipit

#endif // SKIPIT_CORE_LSU_HH
