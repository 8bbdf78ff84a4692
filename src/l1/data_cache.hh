/**
 * @file
 * The SonicBOOM L1 data cache with the paper's flush unit and Skip It.
 *
 * This is the reproduction of the paper's primary contribution: the
 * non-blocking L1 (§3.3) extended with
 *  - the flush unit (§5.2): flush queue, FSHRs, flush counter;
 *  - CBO.X handling rules for loads / stores / coalescing (§5.3);
 *  - the writeback-interference interlocks probe_invalidate, flush_rdy,
 *    probe_rdy and wb_rdy (§5.4);
 *  - the Skip It skip bit and GrantDataDirty handling (§6).
 */

#ifndef SKIPIT_L1_DATA_CACHE_HH
#define SKIPIT_L1_DATA_CACHE_HH

#include <string>
#include <vector>

#include "config.hh"
#include "cpu_interface.hh"
#include "sim/queues.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/ticked.hh"
#include "structures.hh"
#include "tilelink/link.hh"

namespace skipit {

/**
 * The per-core L1 data cache. TileLink client of the shared L2; server of
 * its core's LSU via submit()/popResp().
 */
class DataCache : public Ticked, public probe::Inspectable
{
  public:
    /**
     * @param id   this cache's TileLink source id (== core index)
     * @param link the TileLink towards the L2 (client end)
     */
    DataCache(std::string name, Simulator &sim, const L1Config &cfg,
              AgentId id, TLLink &link, Stats &stats);

    void tick() override;
    Cycle nextWake() const override;

    /// @name LSU-facing interface
    /// @{
    /** Fire a request into the cache (models the LSU request port). */
    void submit(const CpuReq &req);
    bool respReady() const { return resp_q_.ready(); }
    CpuResp popResp() { return resp_q_.pop(); }

    /** Quiescence: cycle the earliest queued CPU response becomes visible
     *  to the LSU; wake_never when none is pending. */
    Cycle respWakeAt() const;

    /** The flushing signal (§5.3 Fences): true while the flush counter is
     *  non-zero, i.e. some CBO.X is pending in the queue or an FSHR. */
    bool flushing() const { return flush_counter_ > 0; }
    /// @}

    /// @name Test introspection
    /// @{
    const L1Arrays &arrays() const { return arrays_; }
    ClientState lineState(Addr addr) const;
    bool lineDirty(Addr addr) const;
    bool lineSkip(Addr addr) const;
    unsigned flushCounter() const { return flush_counter_; }
    bool quiesced() const;
    /** Read a cached word without timing side effects.
     *  @return false if the line is not resident */
    bool peekWord(Addr addr, std::uint64_t &value) const;
    /// @}

    /// @name Checker introspection (verify/ reads, never writes)
    /// @{
    const std::vector<Fshr> &fshrs() const { return fshrs_; }
    const std::vector<L1Mshr> &mshrs() const { return mshrs_; }
    const BoundedFifo<FlushQueueEntry> &flushQueue() const
    {
        return flush_q_;
    }
    const ProbeUnit &probeUnit() const { return probe_; }
    const WritebackUnit &writebackUnit() const { return wbu_; }
    /** Any in-flight machinery on @p addr's line: FSHR, flush-queue entry,
     *  probe, writeback or MSHR. Checker value/skip invariants only fire
     *  on lines with no transaction in flight. */
    bool lineBusy(Addr addr) const;
    /// @}

    /** Watchdog interface: fingerprint every busy FSHR / MSHR / WBU /
     *  probe-unit / flush-queue entry (see sim/watchdog.hh). */
    void snapshotResources(
        std::vector<probe::ResourceSnapshot> &out) const override;

    /**
     * Fault injection (tests only): force the skip bit of a resident
     * clean line to 1 regardless of whether the line is persisted below —
     * the exact bug class the durability oracle exists to catch (§6.1
     * soundness). Negative-control hook; precedent:
     * TLXbar::injectAMisroute.
     */
    void injectSkipCorruption(Addr addr);

    /** Fault injection (tests only): promote a resident line to Trunk
     *  without asking the L2, so another holder breaks swmr. */
    void injectTrunk(Addr addr);

    /** Fault injection (tests only): flip one byte of a resident line's
     *  data without dirtying it, so a clean copy disagrees with the
     *  levels below (value-coherence). */
    void injectDataCorruption(Addr addr);

  private:
    Simulator &sim_;
    L1Config cfg_;
    AgentId id_;
    TLLink &link_;

    /** Registered with Stats under "l1.<id>.". */
    struct Counters
    {
        std::uint64_t load_hits = 0;
        std::uint64_t load_misses = 0;
        std::uint64_t store_hits = 0;
        std::uint64_t store_misses = 0;
        std::uint64_t store_upgrades = 0;
        std::uint64_t fshr_forwards = 0;
        std::uint64_t nacks = 0;
        std::uint64_t mshr_primary = 0;
        std::uint64_t mshr_secondary = 0;
        std::uint64_t mshr_full = 0;
        std::uint64_t fills = 0;
        std::uint64_t evictions = 0;
        std::uint64_t writebacks = 0;
        std::uint64_t probes = 0;
        std::uint64_t cbo_clean_accepted = 0;
        std::uint64_t cbo_flush_accepted = 0;
        std::uint64_t cbo_inval_accepted = 0;
        std::uint64_t cbo_zero = 0;
        std::uint64_t cbo_coalesced = 0;
        std::uint64_t skipit_dropped = 0;
        std::uint64_t flushq_full = 0;
        std::uint64_t fshr_allocs = 0;
        std::uint64_t fshr_completions = 0;
    };
    Counters ctr_;

    L1Arrays arrays_;
    std::vector<L1Mshr> mshrs_;
    WritebackUnit wbu_;
    ProbeUnit probe_;
    BoundedFifo<FlushQueueEntry> flush_q_;
    std::vector<Fshr> fshrs_;
    unsigned flush_counter_ = 0;
    unsigned fshr_rr_ = 0; //!< round-robin FSHR allocation pointer (§5.2)

    DelayQueue<CpuReq> in_q_;          //!< LSU -> cache request pipe
    CompletionBuffer<CpuResp> resp_q_; //!< cache -> LSU responses

    /// @name Per-tick stages
    /// @{
    void processChannelD();
    void processProbe();
    void processCpuRequests();
    void flushUnitDequeue();
    void tickFshrs();
    void tickWbu();
    void issueAcquires();
    /// @}

    /// @name Request handling
    /// @{
    void handleLoad(const CpuReq &req);
    void handleStore(const CpuReq &req);
    void handleCbo(const CpuReq &req);
    void handleCboZero(const CpuReq &req);
    void respond(const CpuReq &req, std::uint64_t data, Cycle delay);
    void respondNack(const CpuReq &req);
    /// @}

    /// @name MSHR path
    /// @{
    /** Try to merge @p req into an existing MSHR or allocate a new one.
     *  @return false -> the LSU must be nacked. */
    bool missToMshr(const CpuReq &req, Grow grow);
    int mshrForLine(Addr line) const;
    void fillFromGrant(const DMsg &grant);
    void replay(L1Mshr &m, unsigned fill_set, unsigned fill_way);
    /** Pick an eviction victim in @p set honouring flush_rdy and MSHR
     *  reservations. @return way or -1. */
    int pickVictim(unsigned set) const;
    bool wayReservedByMshr(unsigned set, unsigned way) const;
    /// @}

    /// @name Flush unit
    /// @{
    /** Is any FSHR working on @p line (flush_rdy low)? */
    int fshrForLine(Addr line) const;
    bool flushQueueHasLine(Addr line) const;
    /** §5.4: reset hit/dirty of queued entries for @p line after a probe
     *  or eviction downgraded the line to @p cap equivalent. */
    void invalidateFlushEntries(Addr line, bool fully_invalidated);
    void completeFshr(Fshr &f);
    /** Emit a probe instant recording @p f's new state. */
    void emitFshrState(const Fshr &f) const;
    /// @}

    /// @name Data helpers
    /// @{
    std::uint64_t readWord(const LineData &line, Addr addr,
                           unsigned size) const;
    void writeWord(LineData &line, Addr addr, unsigned size,
                   std::uint64_t value);
    /// @}
};

} // namespace skipit

#endif // SKIPIT_L1_DATA_CACHE_HH
