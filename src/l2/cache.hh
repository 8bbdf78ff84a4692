/**
 * @file
 * The shared last-level cache, modelled on the SiFive inclusive cache
 * (§3.4) with the paper's RootRelease support added (§5.5) and the
 * Skip-It GrantDataDirty response (§6), with three selectable policies:
 *
 *  - state (StateKind, src/l2/directory.hh): inclusive (the paper's L2,
 *    the default) or exclusive (clean fills bypass the BankedStore),
 *    decided at DRAM-fill time only;
 *  - indexing (src/l2/index.hh): modulo or hashed slice+set mapping,
 *    shared with the client links so routing and residency cannot
 *    disagree;
 *  - replacement (src/l2/replace.hh): lru / fifo / seeded random.
 *
 * Structure follows the original: SinkC dispatches incoming C-channel
 * traffic, a ListBuffer holds RootReleases awaiting an MSHR, MSHRs run the
 * transactions, the BankedStore holds line data, the Directory holds
 * metadata with full-map holder tracking, SourceC writes back to memory and
 * SourceD issues responses.
 */

#ifndef SKIPIT_L2_CACHE_HH
#define SKIPIT_L2_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "banked_store.hh"
#include "directory.hh"
#include "dram/dram.hh"
#include "index.hh"
#include "replace.hh"
#include "sim/queues.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/ticked.hh"
#include "tilelink/link.hh"

namespace skipit {

/** Last-level cache parameters. */
struct L2Config
{
    unsigned sets = 1024;       //!< 1024 x 8 x 64 B = 512 KiB (§7.1)
    unsigned ways = 8;
    unsigned mshrs = 32;
    unsigned list_buffer_cap = 128;
    Cycle tag_latency = 8;      //!< directory access
    Cycle data_latency = 8;     //!< BankedStore access
    /** Pipeline latency of the RootReleaseAck response path (SourceD
     *  scheduling, cross-clock queues); purely a latency, the MSHR has
     *  already been freed. Calibrated so a single CBO.X round trip is
     *  ~100 cycles as the paper measures (Fig 9). */
    Cycle rootrelease_ack_latency = 60;
    /** LLC trivial skip (§5.5): a clean line's RootRelease skips DRAM.
     *  Always true in the paper's L2; exposed for the ablation bench. */
    bool llc_skip = true;
    /** Respond GrantDataDirty when the granted line is dirty in L2 (§6).
     *  Off = plain GrantData always, i.e. a pre-Skip-It L2. */
    bool grant_data_dirty = true;
    /** Address-interleaved slice count (power of two). Each slice owns
     *  sets/slices sets of the total capacity and every line the
     *  indexing policy homes to it. 1 = the paper's single monolithic
     *  L2. */
    unsigned slices = 1;

    /// @name Policy layers (defaults reproduce the paper's L2 exactly)
    /// @{
    StateKind policy = StateKind::Inclusive;
    IndexKind index = IndexKind::Modulo;
    ReplaceKind replace = ReplaceKind::Lru;
    /** Hashed-index key (index == Hashed only). */
    std::uint64_t index_seed = 0x736b697034686173ULL;
    /** Seeded-random replacement stream (replace == Random only). */
    std::uint64_t replace_seed = 1;
    /// @}

    /** The indexing-policy value shared by every client link's routing
     *  and every slice — the single source of truth for line homing. */
    L2IndexPolicy
    indexPolicy() const
    {
        L2IndexPolicy p;
        p.kind = index;
        p.slices = std::max(1u, slices);
        p.sets_per_slice = sets / p.slices;
        p.seed = index_seed;
        return p;
    }
};

/**
 * One slice of the LLC (the whole LLC when L2Config::slices is 1).
 * Acts as TileLink manager on each client port and as client to the
 * (shared) DRAM controller, claiming only its own completions by
 * slice-encoded tag.
 */
class L2Cache : public Ticked, public probe::Inspectable
{
  public:
    /** @param slice this instance's slice index in [0, cfg.slices) */
    L2Cache(std::string name, Simulator &sim, const L2Config &cfg,
            Dram &dram, Stats &stats, unsigned slice = 0);

    /** Attach client @p id's link: this slice's port is its view of
     *  the link. Call once per client before simulating. */
    void connectPort(AgentId id, TLLink &link);

    void tick() override;
    Cycle nextWake() const override;

    /** True when no transaction is in flight (quiesced). */
    bool idle() const;

    /// @name Slice geometry and policies
    /// @{
    unsigned sliceIndex() const { return slice_; }
    unsigned sliceCount() const { return slice_count_; }
    const L2IndexPolicy &indexPolicy() const { return index_; }
    StateKind statePolicy() const { return cfg_.policy; }
    /** Does this slice's address range contain @p line_addr? */
    bool
    homesLine(Addr line_addr) const
    {
        return index_.sliceOf(lineAlign(line_addr)) == slice_;
    }
    /// @}

    /// @name Introspection for tests
    /// @{
    const Directory &directory() const { return dir_; }
    const BankedStore &store() const { return store_; }
    /** Line state snapshot: resident? dirty? */
    bool isResident(Addr line_addr) const;
    bool isDirty(Addr line_addr) const;
    /** Any transaction in flight on @p line_addr's line (as requested line,
     *  eviction victim, or buffered RootRelease)? Checker value invariants
     *  only fire on lines with no transaction in flight. */
    bool lineBusy(Addr line_addr) const;
    /** The clients with an A, C or E message in flight to or waiting at
     *  this slice, per channel (bit i = client i). */
    const TLInbound &inbound() const { return inbound_; }
    /// @}

    /**
     * Checker audit: the first in-flight line (MSHR request, eviction
     * victim, or buffered RootRelease) that does not home to this
     * slice; with @p scan_directory also any resident foreign line.
     * Any hit means the interconnect misrouted a request.
     */
    std::optional<Addr> firstForeignLine(bool scan_directory) const;

    /** Watchdog interface: fingerprint every valid MSHR and buffered
     *  RootRelease (see sim/watchdog.hh). */
    const std::string &resourcePrefix() const override;
    void snapshotResources(
        std::vector<probe::ResourceSnapshot> &out) const override;

    /// @name Fault injection (tests only; see DataCache::injectTrunk)
    /// @{
    /** Drop agent @p id from a resident line's directory entry without
     *  probing it: the L1 keeps a copy the L2 no longer tracks. */
    void injectDropHolder(Addr addr, AgentId id);
    /** Flip one byte of a resident line's BankedStore copy. */
    void injectStoreCorruption(Addr addr);
    /** Clear a resident line's data_resident: its entry turns tag-only
     *  with its BankedStore bytes, dirty bit and holders left as they
     *  are. */
    void injectTagOnly(Addr addr);
    /** Tests only: recompute the MSHR and port bitsets from the MSHRs
     *  and the links' queues. @return the first mismatch, or "" if
     *  none. */
    std::string checkLiveSets() const;
    /// @}

  private:
    /** One L2 transaction in flight. */
    struct Mshr
    {
        enum class Kind { Acquire, RootRelease };
        enum class State
        {
            Idle,
            DirLookup,      //!< directory access underway
            EvictProbe,     //!< awaiting victim back-invalidation acks
            EvictWriteback, //!< push dirty victim to DRAM (fire & forget)
            Fetch,          //!< awaiting DRAM read
            ProbeHolders,   //!< awaiting probe acks for the requested line
            MemWriteback,   //!< RootRelease: awaiting DRAM write ack (§5.5)
            Respond,        //!< issue Grant* / RootReleaseAck
            WaitGrantAck,   //!< Acquire: awaiting channel E completion
        };

        bool valid = false;
        Kind kind = Kind::Acquire;
        State state = State::Idle;
        Addr line = 0;
        AgentId requester = invalid_agent;
        AMsg areq{};
        CMsg creq{};

        int way = -1;              //!< way of the requested line, if any
        unsigned set = 0;
        bool way_locked = false;
        bool line_was_resident = false;

        // Victim handling (Acquire misses in a full set).
        bool has_victim = false;
        Addr victim_line = 0;
        int victim_way = -1;
        bool victim_dirty = false;

        // Store-bypassing fill (StateKind::Exclusive): the fill's
        // bytes are stashed here and granted directly, never entering
        // the BankedStore.
        bool grant_from_stash = false;
        LineData fill_data{};

        unsigned pending_acks = 0;
        Cap probe_cap = Cap::toN;
        Cycle wait_until = 0;
        bool awaiting_dram = false;
        TxnId txn = 0; //!< observability transaction id of the request
    };

    Simulator &sim_;
    L2Config cfg_;
    Dram &dram_;

    /** Registered with Stats under "l2."; sibling slices sum. */
    struct Counters
    {
        std::uint64_t acquires = 0;
        std::uint64_t fills = 0;
        std::uint64_t grants_clean = 0;
        std::uint64_t grants_dirty = 0;
        std::uint64_t probes = 0;
        std::uint64_t releases = 0;
        std::uint64_t victim_writebacks = 0;
        std::uint64_t listbuffer_buffered = 0;
        std::uint64_t rootrelease_clean = 0;
        std::uint64_t rootrelease_flush = 0;
        std::uint64_t rootrelease_inval = 0;
        std::uint64_t rootrelease_inval_discarded = 0;
        std::uint64_t rootrelease_llc_skipped = 0;
        std::uint64_t rootrelease_mem_writebacks = 0;
    };
    Counters ctr_;

    unsigned slice_;
    unsigned slice_count_;
    L2IndexPolicy index_;
    std::vector<TLClientPort> ports_;
    Directory dir_;
    BankedStore store_;
    std::vector<Mshr> mshrs_;
    BoundedFifo<CMsg> list_buffer_;
    std::uint64_t untracked_tag_ = 0;

    /// @name Live-entry bitsets (bit i = MSHR i or client i)
    /// Walked in ascending order, which is the order a scan of every
    /// entry would visit them in.
    /// @{
    std::uint64_t live_ = 0; //!< valid MSHRs
    /** Valid MSHRs that are not parked. A parked MSHR waits on probe
     *  acks, on DRAM or for its GrantAck, and its tick is a no-op; the
     *  arrival that unparks it sets its bit again. */
    std::uint64_t act_ = 0;
    /** Ports with a message in flight to or waiting at this slice, per
     *  channel; the links keep them. */
    TLInbound inbound_;
    /// @}

    void drainDramResponses();
    void acceptChannelC();
    void acceptChannelE();
    void acceptChannelA();
    void retryListBuffer();
    void tickMshr(unsigned idx);

    /**
     * Voluntary Release / ReleaseData from an L1 writeback unit. Applied
     * in C-channel arrival order, before any later ProbeAck, so that dirty
     * data released during a concurrent RootRelease is never lost.
     */
    void handleRelease(const CMsg &msg);

    /** Route a ProbeAck[Data] to the MSHR expecting it. */
    void handleProbeAck(const CMsg &msg);

    /**
     * Apply a RootRelease's permission report and dirty payload to the
     * directory at arrival — RootRelease is encoded as ProbeAck (§5.1)
     * and behaves like one even while waiting for an MSHR.
     */
    void applyRootReleaseArrival(const CMsg &msg);

    /** Try to start a RootRelease transaction. @return false if no MSHR. */
    bool tryAllocRootRelease(const CMsg &msg);

    /** Try to start an Acquire transaction. @return false if blocked. */
    bool tryAllocAcquire(const AMsg &msg);

    int findFreeMshr() const;
    int mshrForLine(Addr line) const;
    /** Claim the free MSHR @p idx for a new transaction. */
    Mshr &allocMshr(unsigned idx);
    void freeMshr(unsigned idx);
    /** Apply a C-channel message's shrink report to the entry in
     *  (@p set, @p way) and take its payload (ReleaseData, ProbeAckData,
     *  RootReleaseData) into the store: the entry turns dirty and
     *  resident under either state policy. Marks the entry only when it
     *  changes. */
    void applyReport(unsigned set, unsigned way, const CMsg &msg);

    /** Probe every client in the nonempty mask @p targets (bit i =
     *  client i), in ascending id order, and park @p m on their acks. */
    void startProbes(Mshr &m, Addr line, Cap cap, std::uint64_t targets);
    /** The clients @p e records as holders, but @p except, as a client
     *  mask. */
    std::uint64_t holdersOf(const DirEntry &e, AgentId except) const;

    std::uint64_t dramTagFor(unsigned mshr_idx, bool tracked) const;
    /** Was this tracked DRAM tag issued by this slice? */
    bool dramTagMine(std::uint64_t tag) const;

    /** Emit a probe instant recording MSHR @p idx's new state. */
    void emitMshrState(unsigned idx) const;
};

} // namespace skipit

#endif // SKIPIT_L2_CACHE_HH
