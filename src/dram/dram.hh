/**
 * @file
 * A fixed-latency, bandwidth-limited DRAM controller with a functional
 * backing store.
 *
 * Substitutes for FASED (§7.1): the paper uses an FPGA-hosted realistic
 * DRAM model purely to provide credible memory latency; here a single
 * closed-page latency plus an issue-rate limit and bounded in-flight window
 * capture the first-order behaviour. The functional backing store is what
 * crash-consistency tests inspect: after CBO.X + fence, the line's bytes
 * must be present here.
 */

#ifndef SKIPIT_DRAM_DRAM_HH
#define SKIPIT_DRAM_DRAM_HH

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "sim/change_log.hh"
#include "sim/queues.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/ticked.hh"
#include "sim/types.hh"
#include "tilelink/messages.hh"

namespace skipit {

/** A line-granularity memory request from the LLC. */
struct MemReq
{
    bool write = false;
    Addr addr = 0;        //!< line-aligned
    LineData data{};      //!< valid for writes
    std::uint64_t tag = 0; //!< opaque id echoed in the response
    TxnId txn = 0;        //!< observability transaction id
};

/** Completion of a MemReq. */
struct MemResp
{
    bool write = false;
    Addr addr = 0;
    LineData data{};      //!< valid for reads
    std::uint64_t tag = 0;
};

/** DRAM controller parameters. */
struct DramConfig
{
    Cycle latency = 80;          //!< read (closed-page access) latency
    /** Write acknowledgement latency: writes ack once they are safely in
     *  the controller's write queue, long before the array update — this
     *  is what lets many writebacks overlap in hardware. */
    Cycle write_ack_latency = 20;
    unsigned max_inflight = 64;  //!< outstanding request window
    unsigned issue_interval = 2; //!< min cycles between issued requests
};

/**
 * The memory controller. The LLC submits line reads/writes; responses
 * appear on popResp() after the configured latency, subject to the issue
 * rate and in-flight limits.
 */
class Dram : public Ticked
{
  public:
    Dram(std::string name, Simulator &sim, const DramConfig &cfg,
         Stats &stats);

    void tick() override;
    Cycle nextWake() const override;

    /** Register an LLC slice that reads the response queue: each queued
     *  response wakes it. */
    void addReader(Ticked &slice) { readers_.push_back(&slice); }

    /** Can a new request be submitted this cycle? */
    bool canAccept() const;

    /** Submit a request; undefined behaviour unless canAccept(). */
    void submit(const MemReq &req);

    bool respReady() const { return resp_q_.ready(); }

    /** The response popResp() would return; undefined unless
     *  respReady(). Slices peek the tag to take only their own
     *  completions off the shared controller in head-of-line order. */
    const MemResp &peekResp() const { return resp_q_.front(); }

    /** Quiescence: cycle the earliest queued response becomes visible to
     *  the LLC; wake_never when none is in flight. */
    Cycle respWakeAt() const;
    MemResp popResp();
    unsigned inflight() const { return inflight_; }

    /// @name Functional backing store (test / checkpoint interface)
    /// @{
    /** Read a line's current content; zero-filled if never written. */
    LineData peekLine(Addr line_addr) const;
    /** Directly deposit a line (test setup). */
    void pokeLine(Addr line_addr, const LineData &data);
    /** Read one 64-bit word straight from the backing store. */
    std::uint64_t peekWord(Addr addr) const;
    /** Lines ever stored; slot s (first-store order) holds line
     *  storedLine(s). */
    std::size_t storedLines() const { return line_addrs_.size(); }
    Addr storedLine(std::size_t slot) const { return line_addrs_[slot]; }
    /** Store slots created or given new bytes (by a queued write or
     *  pokeLine) since the last clearChanges(); a write of the bytes a
     *  slot already holds marks nothing. The checker drains this
     *  without changing simulated state. */
    const ChangeLog &changes() const { return changes_; }
    void clearChanges() const { changes_.clear(); }
    /// @}

    /// @name ADR persist domain (durability-oracle interface)
    ///
    /// The persist domain at any instant is the backing store plus every
    /// write already accepted into the controller queue: like hardware
    /// ADR, the controller is assumed to drain its accepted write queue
    /// on standby power after a failure. Queued reads have no effect.
    /// @{
    /** The full post-crash image: store_ with queued writes applied in
     *  FIFO order. */
    std::unordered_map<Addr, LineData> persistImage() const;
    /** One line of the persist domain (the last queued write wins). */
    LineData persistLine(Addr line_addr) const;
    /** Accepted-but-unissued writes (already part of the image). */
    unsigned pendingWrites() const;
    /** Line addresses of accepted-but-unissued writes, FIFO order. */
    std::vector<Addr> queuedWriteLines() const;
    /// @}

  private:
    Simulator &sim_;
    DramConfig cfg_;

    /** Registered with Stats under "dram.". */
    struct Counters
    {
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
    };
    Counters ctr_;

    BoundedFifo<MemReq> req_q_;
    CompletionBuffer<MemResp> resp_q_;
    /** The backing store: slot_of_ maps a line to its slot in lines_
     *  (a deque: growth neither copies lines nor doubles capacity). */
    std::unordered_map<Addr, std::size_t> slot_of_;
    std::vector<Addr> line_addrs_;
    std::deque<LineData> lines_;
    mutable ChangeLog changes_;
    std::vector<Ticked *> readers_;
    unsigned inflight_ = 0;
    Cycle next_issue_ = 0;

    /** The one mutable path into the backing store; marks changes()
     *  for a new slot or new bytes. */
    void storeLine(Addr line_addr, const LineData &data);
};

} // namespace skipit

#endif // SKIPIT_DRAM_DRAM_HH
