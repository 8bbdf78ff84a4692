/**
 * @file
 * Transaction-level observability: the probe hub and its sink interface.
 *
 * Every memory operation is assigned a transaction id (TxnId) at the LSU;
 * components along its path (LSU, flush queue, FSHRs, TileLink channels,
 * L2 MSHRs, DRAM) report timestamped lifecycle events to the Simulator's
 * ProbeHub. Sinks (TxnTracer, tests) subscribe to the hub; when no sink is
 * attached every hook costs exactly one predictable branch, so calibrated
 * cycle counts are unaffected.
 *
 * The hub also defines the Inspectable interface used by the stall
 * Watchdog: components enumerate their busy resources (FSHRs, MSHRs,
 * flush-queue entries) as fingerprinted snapshots, and the watchdog flags
 * any resource whose fingerprint stops changing.
 */

#ifndef SKIPIT_SIM_PROBE_HH
#define SKIPIT_SIM_PROBE_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "logging.hh"
#include "types.hh"

namespace skipit::probe {

/** One lifecycle event of one transaction. */
struct Event
{
    /** How the event relates to a stage's duration. */
    enum class Kind : std::uint8_t
    {
        Begin,   //!< the transaction entered @ref stage
        End,     //!< the transaction left @ref stage (pairs with Begin)
        Instant, //!< a point event (state transition, drop, nack)
        Span,    //!< a self-contained interval of @ref dur cycles
    };

    Cycle cycle = 0;         //!< when the event happened
    Cycle dur = 0;           //!< Span only: interval length in cycles
    TxnId txn = 0;           //!< transaction this event belongs to
    Kind kind = Kind::Instant;
    const char *stage = "";  //!< latency-histogram key, e.g. "l1.fshr"
    std::string track;       //!< rendering row, e.g. "core0.l1d.fshr3"
    std::string detail;      //!< human-readable label / arguments
    /** Machine-readable payload, consumed by the durability oracle:
     *  the line address the event concerns (0 when not applicable). */
    Addr addr = 0;
    /** Machine-readable payload: event-specific argument — typically a
     *  line-data fingerprint for persist.* and dram.write events. */
    std::uint64_t arg = 0;
};

/**
 * Print @p e as one line, without indent or newline:
 * "<cycle> [<stage>] <kind> <track>[: <detail>][ (dur <n>)]".
 */
void printEvent(std::ostream &os, const Event &e);

/** Receives every event emitted while attached to a hub. */
class Sink
{
  public:
    virtual ~Sink() = default;
    virtual void onEvent(const Event &e) = 0;
};

/**
 * The per-simulator event hub. Components test active() (one branch) and
 * only build and emit events when a sink is listening. Transaction ids are
 * handed out unconditionally so that ids are stable whether or not anyone
 * is observing — attaching a tracer never changes simulated behaviour.
 *
 * Transaction ids are partitioned into allocation lanes so that the id an
 * allocator hands out depends only on that allocator's own history, never
 * on cross-component interleaving: id = (lane << txn_lane_shift) | count.
 * Lane 0 serves components with no hart; hart h's LSU allocates from lane
 * h + 1, which is how the durability oracle reads the hart out of an id.
 */
class Hub
{
  public:
    /** Allocation lanes: lane 0 (default) plus one per possible hart. */
    static constexpr unsigned txn_lanes = 65;
    /** Bit position of the lane field inside a TxnId. */
    static constexpr unsigned txn_lane_shift = 44;

    /** Is at least one sink attached? Hooks gate on this. */
    bool active() const { return !sinks_.empty(); }

    void attach(Sink &sink);
    void detach(Sink &sink);

    /** Allocate the next transaction id in @p lane (per-lane monotonic,
     *  never 0). */
    TxnId
    newTxn(unsigned lane = 0)
    {
        SKIPIT_ASSERT(lane < txn_lanes, "txn lane out of range: ", lane);
        last_txn_ = (static_cast<TxnId>(lane) << txn_lane_shift) |
                    ++lane_counts_[lane];
        return last_txn_;
    }

    /** Most recently allocated transaction id (0 when none yet). */
    TxnId lastTxn() const { return last_txn_; }

    void emit(const Event &e);

    /// @name Emission helpers (only call when active())
    /// @{
    void begin(Cycle cycle, TxnId txn, const char *stage, std::string track,
               std::string detail = {});
    void end(Cycle cycle, TxnId txn, const char *stage, std::string track,
             std::string detail = {});
    void instant(Cycle cycle, TxnId txn, const char *stage,
                 std::string track, std::string detail = {});
    void span(Cycle cycle, Cycle dur, TxnId txn, const char *stage,
              std::string track, std::string detail = {});

    /** Payload-carrying variants: identical to the above but attach the
     *  line address and an event-specific argument (e.g. a line-data
     *  fingerprint) for machine consumers such as the durability oracle. */
    void end(Cycle cycle, TxnId txn, const char *stage, std::string track,
             std::string detail, Addr addr, std::uint64_t arg);
    void instant(Cycle cycle, TxnId txn, const char *stage,
                 std::string track, std::string detail, Addr addr,
                 std::uint64_t arg);
    void span(Cycle cycle, Cycle dur, TxnId txn, const char *stage,
              std::string track, std::string detail, Addr addr,
              std::uint64_t arg);
    /// @}

  private:
    std::vector<Sink *> sinks_;
    std::array<TxnId, txn_lanes> lane_counts_{};
    TxnId last_txn_ = 0;
};

/**
 * One busy resource as seen by the watchdog, identified by (component,
 * @ref kind, @ref index). Every field is a number or a string literal,
 * so taking a snapshot allocates nothing: the watchdog formats the
 * resource's name ("core0.l1d.fshr2") and its description only when it
 * reports a stall. The fingerprint must change whenever the resource
 * makes forward progress; equal fingerprints across scans mean "no state
 * advance".
 */
struct ResourceSnapshot
{
    /** The index of a component's only unit of its kind ("wbu"), and
     *  the position of a resource that has none. */
    static constexpr std::uint64_t none = ~std::uint64_t{0};

    /** The name after the component's: "fshr", "flushq.txn", ... */
    const char *kind = "";
    /** Which one of its kind: the slot, or the queued transaction;
     *  printed after @ref kind unless none. */
    std::uint64_t index = none;
    std::uint64_t fingerprint = 0;
    TxnId txn = 0;                //!< transaction occupying the resource
    /** The human-readable state summary: these literals in order (null
     *  ones skipped), then @ref position unless none. */
    std::array<const char *, 3> describe{};
    std::uint64_t position = none;
};

/** A component whose busy resources the watchdog can inspect. */
class Inspectable
{
  public:
    virtual ~Inspectable() = default;
    /** The prefix of every resource name, e.g. "core0.l1d". */
    virtual const std::string &resourcePrefix() const = 0;
    /** Append one snapshot per currently-busy resource, in a fixed
     *  order (stall reports from one scan come out in it). */
    virtual void snapshotResources(std::vector<ResourceSnapshot> &out)
        const = 0;
};

/** Order-dependent hash combine for resource fingerprints. */
constexpr std::uint64_t
fingerprint(std::uint64_t seed)
{
    return seed;
}

template <typename... Rest>
constexpr std::uint64_t
fingerprint(std::uint64_t seed, std::uint64_t v, Rest... rest)
{
    // FNV-1a style mixing: cheap, deterministic, order sensitive.
    seed ^= v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
    return fingerprint(seed, static_cast<std::uint64_t>(rest)...);
}

} // namespace skipit::probe

#endif // SKIPIT_SIM_PROBE_HH
