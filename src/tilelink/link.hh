/**
 * @file
 * The TileLink between one client agent (an L1 cache) and the manager
 * side (the L2 slices), modelling the five unidirectional channels A-E
 * with per-channel beat serialization.
 *
 * The SonicBOOM system bus moves 16 B per cycle (Figure 3), so a message
 * carrying a 64 B line occupies its channel for four beats — this is the
 * "takes four cycles to send the data to L2" cost of the FSHR's
 * root_release_data state (§5.2).
 *
 * The paper's platform has exactly one inclusive L2, which is the
 * one-slice case. Scaled-out designs shard the shared cache instead
 * (BlackParrot's BedRock distributes its directory across
 * address-interleaved slices), so a link's request channels (A, C, E)
 * end at every slice: each send picks the home slice of the line
 * address with the same L2IndexPolicy the slices index with
 * (src/l2/index.hh), so routing and residency cannot disagree. The
 * responses (B, D) travel back on the client's own link. Routing is
 * part of the send and adds no latency or clocked stage.
 *
 * For robustness testing each channel can additionally carry a seeded
 * schedule perturbation layer (ChannelJitter): per-message delay jitter
 * and occasional backpressure bursts. These are timing-only faults — the
 * flush unit and Skip It interlocks must be schedule-invariant, so every
 * coherence invariant has to hold under any jitter seed. With jitter
 * disabled (the default) the channel is bit-identical to the unperturbed
 * model.
 */

#ifndef SKIPIT_TILELINK_LINK_HH
#define SKIPIT_TILELINK_LINK_HH

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "l2/index.hh"
#include "messages.hh"
#include "sim/queues.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

namespace skipit {

/**
 * Seeded schedule perturbation for a TileLink channel (timing-only fault
 * injection). Each channel derives its own RNG stream from @ref seed plus
 * a per-channel lane index, so the five channels of a link jitter
 * independently and deterministically.
 */
struct ChannelJitter
{
    bool enabled = false;
    std::uint64_t seed = 0;
    /** Extra per-message arrival delay, uniform in [0, max_delay]. */
    Cycle max_delay = 16;
    /** Probability that a send first sees a backpressure burst. */
    double burst_chance = 0.05;
    /** Burst length: cycles the channel is held busy before the send. */
    Cycle burst_len = 8;
};

/**
 * One unidirectional TileLink channel: a wire with beat-occupancy
 * accounting and one delayed FIFO per destination. A message with data
 * holds the wire for beats_per_line cycles; messages without data take
 * one beat. A response channel (B, D) has one destination, the client;
 * a request channel (A, C, E) has one per L2 slice and delivers each
 * message to the slice its @ref homes policy homes the address to.
 */
template <typename Msg>
class TLChannel
{
  public:
    /**
     * @param stage probe stage literal ("tl.a" ... "tl.e")
     * @param track probe track name, e.g. "core0.tl.a"
     * @param jitter schedule perturbation; @ref ChannelJitter::seed must
     *               already be lane-mixed by the caller (TLLink)
     * @param homes the destinations and the line -> destination map
     */
    TLChannel(const Simulator &sim, Cycle latency,
              const char *stage = "tl", std::string track = "tl",
              const ChannelJitter &jitter = {},
              const L2IndexPolicy &homes = {})
        : sim_(sim), latency_(latency), homes_(homes), stage_(stage),
          track_(std::move(track)), jit_(jitter), rng_(jitter.seed)
    {
        dests_.reserve(homes.slices);
        for (unsigned s = 0; s < homes.slices; ++s)
            dests_.push_back(Dest{DelayQueue<Msg>(sim, latency)});
    }

    /**
     * Send @p m to its home destination, occupying the wire for @p beats
     * cycles.
     * @param extra additional sender-side processing delay, e.g. a
     *              BankedStore access preceding the response
     */
    void
    send(Msg m, unsigned beats = 1, Cycle extra = 0)
    {
        if (jit_.enabled && jit_.burst_len > 0 &&
            rng_.chance(jit_.burst_chance)) {
            // Backpressure burst: pretend the wire was occupied until now
            // plus burst_len, delaying this send and everything behind it.
            busy_until_ = std::max(busy_until_, sim_.now()) + jit_.burst_len;
        }
        const Cycle start = std::max(sim_.now() + extra, busy_until_);
        Cycle arrival = start + latency_ + beats - 1;
        busy_until_ = start + beats;
        if (jit_.enabled) {
            // Per-message delay jitter. Each DelayQueue requires monotone
            // arrival order (it is a wire, not a reorder buffer), so
            // clamp to the previous arrival on the wire: jitter can delay
            // messages but never reorder them.
            arrival = std::max(arrival + rng_.range(0, jit_.max_delay),
                               last_arrival_);
        }
        last_arrival_ = arrival;
        Dest &d = dests_[route(m.addr)];
        if (d.inbound != nullptr)
            *d.inbound |= d.bit;
        if (d.consumer != nullptr)
            d.consumer->wakeAt(arrival);
        if (sim_.probes().active()) {
            // One span per message covering its wire occupancy; a 4-beat
            // data message renders 4x wider than a header-only one.
            sim_.probes().span(start, arrival - start + 1, m.txn, stage_,
                               track_,
                               beats > 1 ? "data beats" : "header");
        }
        d.q.push(std::move(m), arrival - sim_.now());
    }

    /// @name Receiving end; @p dest is the slice (0 on B and D)
    /// @{
    bool ready(unsigned dest = 0) const { return dests_[dest].q.ready(); }
    const Msg &front(unsigned dest = 0) const
    {
        return dests_[dest].q.front();
    }

    Msg
    recv(unsigned dest = 0)
    {
        Dest &d = dests_[dest];
        Msg m = d.q.pop();
        if (d.inbound != nullptr && d.q.empty())
            *d.inbound &= ~d.bit;
        return m;
    }

    bool empty(unsigned dest = 0) const { return dests_[dest].q.empty(); }

    /** Arrival cycle of @p dest's in-flight head; undefined unless
     *  !empty(@p dest). */
    Cycle
    nextArrival(unsigned dest = 0) const
    {
        return dests_[dest].q.frontReadyAt();
    }
    /// @}

    /** The component that receives from the one destination of a B or
     *  D channel: each send wakes it at the message's arrival. */
    void
    setConsumer(Ticked &consumer)
    {
        dests_.front().consumer = &consumer;
    }

    /** Slice @p dest's end of an A, C or E channel, bound before the
     *  first send: each send to it wakes @p manager at the message's
     *  arrival, and @p bit of @p mask stays set exactly while a message
     *  for it is in flight or waiting. */
    void
    bindSlice(unsigned dest, Ticked &manager, std::uint64_t &mask,
              std::uint64_t bit)
    {
        SKIPIT_ASSERT(dest < dests_.size(), track_, " routes to ",
                      dests_.size(), " slice(s), not to slice ", dest);
        Dest &d = dests_[dest];
        d.consumer = &manager;
        d.inbound = &mask;
        d.bit = bit;
    }

    /** The line -> destination map every send applies. */
    const L2IndexPolicy &homes() const { return homes_; }

    /**
     * Fault injection (checker negative control): deliver the next
     * message to the wrong slice. Requires >= 2 slices. The coherence
     * checker's slice-routing invariant must name it.
     */
    void
    injectMisroute()
    {
        SKIPIT_ASSERT(dests_.size() > 1,
                      "misroute injection needs >= 2 slices");
        misroute_ = true;
    }

  private:
    /** One destination: its share of the wire's messages, who reads
     *  them and the inbound bit that says some are queued. */
    struct Dest
    {
        DelayQueue<Msg> q;
        Ticked *consumer = nullptr;
        std::uint64_t *inbound = nullptr;
        std::uint64_t bit = 0;
    };

    unsigned
    route(Addr addr)
    {
        unsigned s = homes_.sliceOf(addr);
        if (misroute_) {
            s ^= 1u; // flip the low slice bit: guaranteed wrong home
            misroute_ = false;
        }
        return s;
    }

    const Simulator &sim_;
    Cycle latency_;
    Cycle busy_until_ = 0;
    Cycle last_arrival_ = 0;
    L2IndexPolicy homes_;
    std::vector<Dest> dests_;
    bool misroute_ = false;
    const char *stage_;
    std::string track_;
    ChannelJitter jit_;
    Rng rng_;
};

/**
 * The five-channel link. The client sends on a, c and e and receives on
 * b and d; each slice reaches the link through a TLClientPort.
 */
class TLLink
{
  public:
    /**
     * @param sim     simulator supplying the clock
     * @param latency one-way wire latency per channel, in cycles
     * @param name    instance name used as the probe track prefix
     * @param jitter  schedule perturbation applied to all five channels,
     *                each with an independently lane-mixed RNG stream
     * @param homes   the L2 slices A, C and E route to; pass the value
     *                every slice indexes with (L2Config::indexPolicy())
     */
    TLLink(const Simulator &sim, Cycle latency = 1, std::string name = "tl",
           const ChannelJitter &jitter = {},
           const L2IndexPolicy &homes = {})
        : a(sim, latency, "tl.a", name + ".a", laneJitter(jitter, 0),
            homes),
          b(sim, latency, "tl.b", name + ".b", laneJitter(jitter, 1)),
          c(sim, latency, "tl.c", name + ".c", laneJitter(jitter, 2),
            homes),
          d(sim, latency, "tl.d", name + ".d", laneJitter(jitter, 3)),
          e(sim, latency, "tl.e", name + ".e", laneJitter(jitter, 4),
            homes)
    {
    }

    TLChannel<AMsg> a;
    TLChannel<BMsg> b;
    TLChannel<CMsg> c;
    TLChannel<DMsg> d;
    TLChannel<EMsg> e;

    /** Beats a C message occupies: data messages move a full line. */
    static unsigned
    beatsFor(const CMsg &m)
    {
        return m.hasData() ? beats_per_line : 1;
    }

    /** Beats a D message occupies. */
    static unsigned
    beatsFor(const DMsg &m)
    {
        return m.hasData() ? beats_per_line : 1;
    }

  private:
    static ChannelJitter
    laneJitter(ChannelJitter j, std::uint64_t lane)
    {
        j.seed = stirSeed(j.seed, lane);
        return j;
    }
};

/** A slice's inbound masks, one per request channel: bit i is set while
 *  client i's link holds a message for the slice on that channel. */
struct TLInbound
{
    std::uint64_t a = 0;
    std::uint64_t c = 0;
    std::uint64_t e = 0;

    std::uint64_t any() const { return a | c | e; }
};

/**
 * A slice's view of one client's link: the A, C and E messages the link
 * routed to this slice, and the client's own B and D for the way back.
 * It holds no queue of its own.
 */
class TLClientPort
{
  public:
    /** An unconnected port. */
    TLClientPort() = default;
    TLClientPort(TLLink &link, unsigned slice, AgentId client)
        : link_(&link), slice_(slice), client_(client)
    {
    }

    bool connected() const { return link_ != nullptr; }
    const TLLink &link() const { return *link_; }

    /// @name Inbound (client -> manager)
    /// @{
    bool aReady() const { return link_->a.ready(slice_); }
    const AMsg &aFront() const { return link_->a.front(slice_); }
    AMsg aPop() { return link_->a.recv(slice_); }
    bool cReady() const { return link_->c.ready(slice_); }
    CMsg cPop() { return link_->c.recv(slice_); }
    bool eReady() const { return link_->e.ready(slice_); }
    EMsg ePop() { return link_->e.recv(slice_); }

    /** The earliest arrival among the A, C and E messages on their way
     *  to or waiting at this slice; wake_never when there are none. */
    Cycle
    nextArrival() const
    {
        Cycle t = Ticked::wake_never;
        if (!link_->a.empty(slice_))
            t = std::min(t, link_->a.nextArrival(slice_));
        if (!link_->c.empty(slice_))
            t = std::min(t, link_->c.nextArrival(slice_));
        if (!link_->e.empty(slice_))
            t = std::min(t, link_->e.nextArrival(slice_));
        return t;
    }
    /// @}

    /// @name Outbound (manager -> client)
    /// @{
    void sendB(const BMsg &m) { link_->b.send(m); }

    void
    sendD(const DMsg &m, unsigned beats, Cycle extra = 0)
    {
        SKIPIT_ASSERT(m.dest == client_, "D response for agent ", m.dest,
                      " sent through client ", client_, "'s port");
        link_->d.send(m, beats, extra);
    }
    /// @}

    /**
     * Wake @p manager at each A, C and E arrival for this slice, and
     * keep bit @p bit of each of @p inbound's masks set exactly while
     * that channel holds a message for it.
     */
    void
    bindInbound(TLInbound &inbound, std::uint64_t bit, Ticked &manager)
    {
        link_->a.bindSlice(slice_, manager, inbound.a, bit);
        link_->c.bindSlice(slice_, manager, inbound.c, bit);
        link_->e.bindSlice(slice_, manager, inbound.e, bit);
    }

  private:
    TLLink *link_ = nullptr;
    unsigned slice_ = 0;
    AgentId client_ = invalid_agent;
};

} // namespace skipit

#endif // SKIPIT_TILELINK_LINK_HH
