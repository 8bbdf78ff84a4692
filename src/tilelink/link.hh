/**
 * @file
 * A point-to-point TileLink between one client agent (an L1 cache) and one
 * manager agent (the inclusive L2), modelling the five unidirectional
 * channels A-E with per-channel beat serialization.
 *
 * The SonicBOOM system bus moves 16 B per cycle (Figure 3), so a message
 * carrying a 64 B line occupies its channel for four beats — this is the
 * "takes four cycles to send the data to L2" cost of the FSHR's
 * root_release_data state (§5.2).
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
 * One unidirectional TileLink channel: a delayed FIFO plus beat-occupancy
 * accounting. A message with data holds the channel for beats_per_line
 * cycles; messages without data take one beat.
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
     */
    TLChannel(const Simulator &sim, Cycle latency,
              const char *stage = "tl", std::string track = "tl",
              const ChannelJitter &jitter = {})
        : sim_(sim), latency_(latency), q_(sim, latency), stage_(stage),
          track_(std::move(track)), jit_(jitter), rng_(jitter.seed)
    {
    }

    /**
     * Send @p m, occupying the channel for @p beats cycles.
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
            // Per-message delay jitter. The underlying DelayQueue requires
            // monotone arrival order (it is a wire, not a reorder buffer),
            // so clamp to the previous arrival: jitter can delay messages
            // but never reorder them.
            arrival = std::max(arrival + rng_.range(0, jit_.max_delay),
                               last_arrival_);
        }
        last_arrival_ = arrival;
        if (consumer_ != nullptr)
            consumer_->wakeAt(arrival);
        if (sim_.probes().active()) {
            // One span per message covering its wire occupancy; a 4-beat
            // data message renders 4x wider than a header-only one.
            sim_.probes().span(start, arrival - start + 1, m.txn, stage_,
                               track_,
                               beats > 1 ? "data beats" : "header");
        }
        q_.push(std::move(m), arrival - sim_.now());
    }

    bool ready() const { return q_.ready(); }
    const Msg &front() const { return q_.front(); }
    Msg recv() { return q_.pop(); }
    bool empty() const { return q_.empty(); }
    std::size_t inFlight() const { return q_.size(); }

    /** Arrival cycle of the in-flight head; undefined unless !empty(). */
    Cycle nextArrival() const { return q_.frontReadyAt(); }

    /** The component that receives from this channel: each send wakes
     *  it at the message's arrival. */
    void setConsumer(Ticked &consumer) { consumer_ = &consumer; }

  private:
    const Simulator &sim_;
    Ticked *consumer_ = nullptr;
    Cycle latency_;
    Cycle busy_until_ = 0;
    Cycle last_arrival_ = 0;
    DelayQueue<Msg> q_;
    const char *stage_;
    std::string track_;
    ChannelJitter jit_;
    Rng rng_;
};

/**
 * The five-channel link. The client end uses sendA/sendC/sendE and
 * recvB/recvD; the manager end uses sendB/sendD and recvA/recvC/recvE.
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
     */
    TLLink(const Simulator &sim, Cycle latency = 1, std::string name = "tl",
           const ChannelJitter &jitter = {})
        : a(sim, latency, "tl.a", name + ".a", laneJitter(jitter, 0)),
          b(sim, latency, "tl.b", name + ".b", laneJitter(jitter, 1)),
          c(sim, latency, "tl.c", name + ".c", laneJitter(jitter, 2)),
          d(sim, latency, "tl.d", name + ".d", laneJitter(jitter, 3)),
          e(sim, latency, "tl.e", name + ".e", laneJitter(jitter, 4))
    {
    }

    TLChannel<AMsg> a;
    TLChannel<BMsg> b;
    TLChannel<CMsg> c;
    TLChannel<DMsg> d;
    TLChannel<EMsg> e;

    /** Wake @p client on B/D sends and @p manager on A/C/E sends. */
    void
    setConsumers(Ticked &client, Ticked &manager)
    {
        b.setConsumer(client);
        d.setConsumer(client);
        a.setConsumer(manager);
        c.setConsumer(manager);
        e.setConsumer(manager);
    }

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

} // namespace skipit

#endif // SKIPIT_TILELINK_LINK_HH
