/**
 * @file
 * Internal structures of the BOOM L1 data cache: metadata/data arrays,
 * MSHRs with replay queues, the writeback unit, the probe unit, and the
 * flush unit's queue entries and FSHRs (§3.3, §5.2).
 */

#ifndef SKIPIT_L1_STRUCTURES_HH
#define SKIPIT_L1_STRUCTURES_HH

#include <bit>
#include <utility>
#include <vector>

#include "coherence/state.hh"
#include "cpu_interface.hh"
#include "sim/change_log.hh"
#include "sim/logging.hh"
#include "sim/types.hh"
#include "tilelink/messages.hh"

namespace skipit {

/**
 * Metadata for one L1 line. The skip bit is the paper's §6 addition: when
 * the line is valid and clean, skip == "no dirty copy of this line exists
 * anywhere below" == the negation of L2's dirty bit (§6.2).
 */
struct L1Meta
{
    ClientState state = ClientState::Nothing;
    Addr tag = 0;
    bool dirty = false;
    bool skip = false;

    bool operator==(const L1Meta &) const = default;

    bool valid() const { return state != ClientState::Nothing; }
};

/** The L1's SRAM arrays: per-(set,way) metadata and line data. The set
 *  count is a power of two, so the set index is a mask of the line
 *  number. */
class L1Arrays
{
  public:
    L1Arrays(unsigned sets, unsigned ways)
        : sets_(sets), set_mask_(sets - 1), ways_(ways),
          meta_(static_cast<std::size_t>(sets) * ways),
          data_(meta_.size()), lru_(meta_.size(), 0)
    {
        SKIPIT_ASSERT(std::has_single_bit(sets),
                      "L1 set count must be a power of two, got ", sets);
    }

    unsigned sets() const { return sets_; }
    unsigned ways() const { return ways_; }

    unsigned
    setOf(Addr line_addr) const
    {
        return static_cast<unsigned>(line_addr >> line_shift) & set_mask_;
    }

    Addr
    tagOf(Addr line_addr) const
    {
        return line_addr >> line_shift;
    }

    Addr
    addrOf(unsigned set, unsigned way) const
    {
        return meta(set, way).tag << line_shift;
    }

    /** @return way holding @p line_addr, or -1 on miss. */
    int
    findWay(Addr line_addr) const
    {
        const unsigned set = setOf(line_addr);
        const Addr tag = tagOf(line_addr);
        for (unsigned w = 0; w < ways_; ++w) {
            const L1Meta &m = meta(set, w);
            if (m.valid() && m.tag == tag)
                return static_cast<int>(w);
        }
        return -1;
    }

    const L1Meta &
    meta(unsigned set, unsigned way) const
    {
        return meta_[idx(set, way)];
    }
    const LineData &
    data(unsigned set, unsigned way) const
    {
        return data_[idx(set, way)];
    }

    /** Store @p m; marks the slot in changes() only when it differs
     *  from what the slot held. */
    void
    write(unsigned set, unsigned way, const L1Meta &m)
    {
        const std::size_t i = idx(set, way);
        if (meta_[i] == m)
            return;
        changes_.mark(i);
        meta_[i] = m;
    }

    /** Store @p d; marks the slot in changes() only when the bytes
     *  differ from what the slot held. */
    void
    write(unsigned set, unsigned way, const LineData &d)
    {
        const std::size_t i = idx(set, way);
        if (data_[i] == d)
            return;
        changes_.mark(i);
        data_[i] = d;
    }

    /** Slots (set * ways + way) a write changed since the last
     *  clearChanges(). The checker drains this; draining is observer
     *  bookkeeping and never changes simulated state. */
    const ChangeLog &changes() const { return changes_; }
    void clearChanges() const { changes_.clear(); }

    void touch(unsigned set, unsigned way) { lru_[idx(set, way)] = ++stamp_; }
    std::uint64_t stampOf(unsigned set, unsigned way) const
    {
        return lru_[idx(set, way)];
    }

  private:
    unsigned sets_;
    unsigned set_mask_; //!< sets_ - 1
    unsigned ways_;
    std::vector<L1Meta> meta_;
    std::vector<LineData> data_;
    std::vector<std::uint64_t> lru_;
    std::uint64_t stamp_ = 0;
    mutable ChangeLog changes_{meta_.size()};

    std::size_t
    idx(unsigned set, unsigned way) const
    {
        SKIPIT_ASSERT(set < sets_ && way < ways_, "L1 array index OOB");
        return static_cast<std::size_t>(set) * ways_ + way;
    }
};

/** A miss status holding register with its replay queue (§3.3). */
struct L1Mshr
{
    enum class State { Idle, AwaitIssue, AwaitGrant };

    bool valid = false;
    State state = State::Idle;
    Addr line = 0;
    Grow param = Grow::NtoB; //!< permission level the primary requested
    std::vector<CpuReq> rpq; //!< primary request plus piggy-backed ones
    unsigned fill_set = 0;   //!< way reserved at allocation for the fill
    unsigned fill_way = 0;
    TxnId txn = 0;           //!< primary request's transaction id

    /** Free the MSHR. The RPQ keeps its storage, so the next miss this
     *  MSHR takes allocates nothing. */
    void
    release()
    {
        std::vector<CpuReq> keep = std::move(rpq);
        keep.clear();
        *this = L1Mshr{};
        rpq = std::move(keep);
    }

    /** Can @p kind piggy-back given the primary's requested permissions?
     *  The RPQ only accepts secondaries needing perms <= the primary's
     *  (§3.3): a load-allocated (NtoB) MSHR cannot accept a store. */
    bool
    accepts(CpuOpKind kind) const
    {
        if (kind == CpuOpKind::Load)
            return true;
        return (kind == CpuOpKind::Store || kind == CpuOpKind::CboZero) &&
               param != Grow::NtoB;
    }
};

/** The writeback unit: releases one victim line at a time to L2 (§3.3). */
struct WritebackUnit
{
    enum class State { Idle, SendRelease, AwaitAck };

    State state = State::Idle;
    Addr line = 0;
    LineData data{};
    bool dirty = false;
    Shrink param = Shrink::TtoN;
    TxnId txn = 0;  //!< transaction whose miss evicted this victim

    bool busy() const { return state != State::Idle; }

    /** wb_rdy (Figure 3/6): low while this unit works on @p line_addr. */
    bool
    conflictsWith(Addr line_addr) const
    {
        return busy() && line == line_addr;
    }
};

/** The probe unit: handles one coherence probe at a time (§3.3, §5.4.1). */
struct ProbeUnit
{
    enum class State
    {
        Idle,
        InvalidateQueue, //!< applying probe_invalidate to flush entries
        CheckConflicts,  //!< waiting on flush_rdy / wb_rdy
        Respond,
    };

    State state = State::Idle;
    Addr line = 0;
    Cap cap = Cap::toN;
    TxnId txn = 0;  //!< transaction id carried by the probe (BMsg)

    bool busy() const { return state != State::Idle; }

    /** probe_rdy (§5.4.1): the flush queue may only dequeue when high. */
    bool probeRdy() const { return !busy(); }
};

/**
 * One entry of the flush queue (§5.2). The bookkeeping bits are a snapshot
 * of the line's metadata at enqueue time; probes and evictions keep them
 * consistent via probe_invalidate (§5.4).
 */
struct FlushQueueEntry
{
    Addr addr = 0;     //!< line-aligned address to write back
    bool is_hit = false;
    bool is_dirty = false;
    CboKind kind = CboKind::Flush; //!< CLEAN / FLUSH / INVAL
    TxnId txn = 0;     //!< the CBO.X instruction's transaction id

    bool isClean() const { return kind == CboKind::Clean; }
};

/** A flush status holding register executing one CBO.X (§5.2, Figure 7). */
struct Fshr
{
    enum class State
    {
        Invalid,
        MetaWrite,      //!< invalidate (flush) / clear dirty (clean)
        FillBuffer,     //!< read the line into the data buffer
        RootReleaseData,//!< send RootRelease with data (4 beats)
        RootRelease,    //!< send RootRelease without data (1 beat)
        RootReleaseAck, //!< await the L2's acknowledgement
    };

    State state = State::Invalid;
    FlushQueueEntry req{};
    LineData buffer{};
    bool buffer_filled = false;
    /** May completion set the skip bit? Cleared when a probe ships newer
     *  data to L2 mid-flight: the release then persists a stale version,
     *  so the line is NOT provably clean below (§6.1). */
    bool skip_ok = true;
    Cycle wait_until = 0;
    unsigned set = 0;            //!< captured at allocation (hits only)
    int way = -1;
    Shrink report = Shrink::NtoN; //!< permission transition to report

    bool busy() const { return state != State::Invalid; }

    /** flush_rdy (§5.4.1): low from allocation until the line has been
     *  released to L2 (i.e. until the FSHR reaches RootReleaseAck). */
    bool
    flushRdyFor(Addr line_addr) const
    {
        return !(busy() && req.addr == line_addr &&
                 state != State::RootReleaseAck);
    }
};

} // namespace skipit

#endif // SKIPIT_L1_STRUCTURES_HH
