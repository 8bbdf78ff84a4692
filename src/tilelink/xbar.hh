/**
 * @file
 * A deterministic TileLink crossbar routing N client links onto S
 * address-interleaved manager slices: the one L1-to-L2 wiring.
 *
 * The paper's platform has exactly one inclusive L2, which is the
 * one-slice case. Scaled-out designs shard the shared cache instead
 * (BlackParrot's BedRock distributes its directory across
 * address-interleaved slices); this crossbar is the interconnect half
 * of that design:
 *
 *  - Requests (channels A, C, E) are routed by the home slice of the
 *    line address, computed by the same L2IndexPolicy the cache slices
 *    themselves index with (src/l2/index.hh) — modulo striping or a
 *    seeded hash; either way the crossbar and the cache cannot
 *    disagree about a line's home.
 *  - Responses (channels B, D) are routed back by agent id: D by the
 *    message's dest field, B by the probed client's port identity.
 *  - Each tick drains every wire-arrived message, client by client in
 *    ascending order. The order is unobservable: each (slice, client)
 *    pair has its own FIFO, which keeps that client's arrival order,
 *    and a slice consumes its ports in ascending client order. So the
 *    routed schedule is a pure function of the message timeline, and a
 *    tick that moves no message changes no state.
 *
 * The crossbar adds zero latency: it ticks before the slices, so a
 * message whose wire arrival is cycle T is visible to its slice's
 * accept logic in cycle T.
 *
 * TLClientPort is a slice's view of one client: the routed (slice,
 * client) queues. A port keeps one bit of its slice's inbound mask set
 * exactly while a message waits in it, so the slice visits only those
 * ports, and wakes the slice when a message arrives.
 */

#ifndef SKIPIT_TILELINK_XBAR_HH
#define SKIPIT_TILELINK_XBAR_HH

#include <memory>
#include <vector>

#include "l2/index.hh"
#include "link.hh"
#include "messages.hh"
#include "sim/logging.hh"
#include "sim/queues.hh"
#include "sim/ticked.hh"

namespace skipit {

class TLXbar;

/**
 * The manager-side view of one client connection: the messages the
 * crossbar routed from that client to one slice, and the way back. The
 * inclusive cache accepts inbound A/C/E traffic and issues outbound B/D
 * responses through it.
 */
class TLClientPort
{
  public:
    TLClientPort(TLXbar &xbar, AgentId client) : xbar_(xbar), client_(client)
    {
    }
    /** A slice holds the port's address, and an unbound port points
     *  into itself. */
    TLClientPort(const TLClientPort &) = delete;
    TLClientPort &operator=(const TLClientPort &) = delete;

    /// @name Inbound (client -> manager)
    /// @{
    bool aReady() const { return !aq_.empty(); }
    const AMsg &aFront() const { return aq_.front(); }

    AMsg
    aPop()
    {
        AMsg m = aq_.popFront();
        settle();
        return m;
    }

    bool cReady() const { return !cq_.empty(); }

    CMsg
    cPop()
    {
        CMsg m = cq_.popFront();
        settle();
        return m;
    }

    bool eReady() const { return !eq_.empty(); }

    EMsg
    ePop()
    {
        EMsg m = eq_.popFront();
        settle();
        return m;
    }
    /// @}

    /// @name Outbound (manager -> client)
    /// @{
    void sendB(const BMsg &m);
    void sendD(const DMsg &m, unsigned beats, Cycle extra = 0);
    /// @}

    /**
     * Bind this port to @p bit of its @p manager's inbound @p mask: from
     * now on the port keeps that bit set exactly while an A, C or E
     * message waits in it, and wakes @p manager when one arrives.
     */
    void
    bindInbound(std::uint64_t &mask, std::uint64_t bit, Ticked &manager)
    {
        inbound_ = &mask;
        inbound_bit_ = bit;
        manager_ = &manager;
        settle();
    }

  private:
    friend class TLXbar;

    /** The crossbar queued a message here: the slice can take it in
     *  cycle @p now (it ticks after the crossbar). */
    void
    arrived(Cycle now)
    {
        *inbound_ |= inbound_bit_;
        if (manager_ != nullptr)
            manager_->wakeAt(now);
    }

    /** Keep the inbound bit equal to "a message waits here". */
    void
    settle()
    {
        if (aq_.empty() && cq_.empty() && eq_.empty())
            *inbound_ &= ~inbound_bit_;
        else
            *inbound_ |= inbound_bit_;
    }

    TLXbar &xbar_;
    AgentId client_;
    Ring<AMsg> aq_;
    Ring<CMsg> cq_;
    Ring<EMsg> eq_;
    /** Until a slice binds the port, it points at a spare word of its
     *  own with an empty bit, so arrivals and pops change nothing. */
    std::uint64_t unbound_ = 0;
    std::uint64_t *inbound_ = &unbound_;
    std::uint64_t inbound_bit_ = 0;
    Ticked *manager_ = nullptr;
};

/** See file comment. */
class TLXbar final : public Ticked
{
  public:
    /** @param index the shared indexing policy — pass the same value
     *  (L2Config::indexPolicy()) to every cache slice. */
    TLXbar(std::string name, const Simulator &sim,
           const L2IndexPolicy &index)
        : Ticked(std::move(name)), sim_(sim), index_(index),
          slices_(index.slices), slice_bits_(sliceBits(index.slices)),
          a_routed_(index.slices, 0), c_routed_(index.slices, 0),
          e_routed_(index.slices, 0)
    {
    }

    /** Plain modulo-indexed crossbar over @p slices (unit tests). */
    TLXbar(std::string name, const Simulator &sim, unsigned slices)
        : TLXbar(std::move(name), sim, L2IndexPolicy::modulo(slices, 1))
    {
    }

    unsigned slices() const { return slices_; }
    const L2IndexPolicy &indexPolicy() const { return index_; }
    /** Width of the slice-selection field, in address bits. */
    unsigned sliceBitCount() const { return slice_bits_; }
    unsigned clients() const
    {
        return static_cast<unsigned>(links_.size());
    }

    /** Attach client @p id's link; call once per client before the
     *  first tick, then hand each slice its port(). */
    void
    connectClient(AgentId id, TLLink &link)
    {
        SKIPIT_ASSERT(id >= 0 && id < 64,
                      "xbar client id must be 0..63: each client is one "
                      "bit of a 64-bit bitset");
        if (static_cast<std::size_t>(id) >= links_.size()) {
            links_.resize(id + 1, nullptr);
            for (auto &row : ports_)
                row.resize(id + 1);
        }
        SKIPIT_ASSERT(links_[id] == nullptr, "xbar client ", id,
                      " already connected");
        links_[id] = &link;
        if (ports_.empty())
            ports_.resize(slices_);
        for (unsigned s = 0; s < slices_; ++s) {
            if (ports_[s].size() < links_.size())
                ports_[s].resize(links_.size());
            ports_[s][id] = std::make_unique<TLClientPort>(*this, id);
        }
    }

    /** The routed port slice @p slice sees for client @p client. */
    TLClientPort &
    port(unsigned slice, AgentId client)
    {
        SKIPIT_ASSERT(slice < slices_ &&
                          static_cast<std::size_t>(client) <
                              ports_[slice].size() &&
                          ports_[slice][client] != nullptr,
                      "xbar port (", slice, ", ", client, ") not wired");
        return *ports_[slice][client];
    }

    /**
     * Drain every wire-arrived A/C/E message into its slice's port,
     * client by client in ascending order (see the file comment for why
     * the order cannot be observed).
     */
    void
    tick() override
    {
        for (unsigned c = 0; c < clients(); ++c)
            drainClientA(c);
        for (unsigned c = 0; c < clients(); ++c)
            drainClientC(c);
        for (unsigned c = 0; c < clients(); ++c)
            drainClientE(c);
    }

    /** Wake when the next client-side message lands on a wire; the
     *  ports wake their slices themselves. */
    Cycle
    nextWake() const override
    {
        const Cycle now = sim_.now();
        Cycle wake = wake_never;
        for (const TLLink *l : links_) {
            if (l == nullptr)
                continue;
            if (!l->a.empty())
                wake = std::min(wake, std::max(l->a.nextArrival(), now));
            if (!l->c.empty())
                wake = std::min(wake, std::max(l->c.nextArrival(), now));
            if (!l->e.empty())
                wake = std::min(wake, std::max(l->e.nextArrival(), now));
        }
        return wake;
    }

    /** No routed message waiting in any port. */
    bool
    idle() const
    {
        for (const auto &row : ports_) {
            for (const auto &p : row) {
                if (p != nullptr &&
                    (p->aReady() || p->cReady() || p->eReady())) {
                    return false;
                }
            }
        }
        return true;
    }

    /** Messages routed so far, per channel (unit-test observability). */
    std::uint64_t routedA(unsigned slice) const { return a_routed_.at(slice); }
    std::uint64_t routedC(unsigned slice) const { return c_routed_.at(slice); }
    std::uint64_t routedE(unsigned slice) const { return e_routed_.at(slice); }

    /**
     * Fault injection (checker negative control): deliver the next
     * A-channel request to the wrong slice. Requires >= 2 slices. The
     * coherence checker's slice-routing invariant must name it.
     */
    void
    injectAMisroute()
    {
        SKIPIT_ASSERT(slices_ > 1, "misroute injection needs >= 2 slices");
        misroute_a_ = true;
    }

  private:
    friend class TLClientPort;

    unsigned
    routeSliceOf(Addr addr)
    {
        unsigned s = index_.sliceOf(lineAlign(addr));
        if (misroute_a_) {
            s ^= 1u; // flip the low slice bit: guaranteed wrong home
            misroute_a_ = false;
        }
        return s;
    }

    void
    drainClientA(unsigned c)
    {
        TLLink *l = links_[c];
        if (l == nullptr)
            return;
        while (l->a.ready()) {
            AMsg m = l->a.recv();
            const unsigned s = routeSliceOf(m.addr);
            TLClientPort &p = *ports_[s][c];
            p.aq_.pushBack(std::move(m));
            p.arrived(sim_.now());
            ++a_routed_[s];
        }
    }

    void
    drainClientC(unsigned c)
    {
        TLLink *l = links_[c];
        if (l == nullptr)
            return;
        while (l->c.ready()) {
            CMsg m = l->c.recv();
            const unsigned s = index_.sliceOf(lineAlign(m.addr));
            TLClientPort &p = *ports_[s][c];
            p.cq_.pushBack(std::move(m));
            p.arrived(sim_.now());
            ++c_routed_[s];
        }
    }

    void
    drainClientE(unsigned c)
    {
        TLLink *l = links_[c];
        if (l == nullptr)
            return;
        while (l->e.ready()) {
            EMsg m = l->e.recv();
            const unsigned s = index_.sliceOf(lineAlign(m.addr));
            TLClientPort &p = *ports_[s][c];
            p.eq_.pushBack(std::move(m));
            p.arrived(sim_.now());
            ++e_routed_[s];
        }
    }

    /** B responses route by the probed client's identity. */
    void
    routeB(AgentId client, const BMsg &m)
    {
        SKIPIT_ASSERT(static_cast<std::size_t>(client) < links_.size() &&
                          links_[client] != nullptr,
                      "xbar: probe for unknown client ", client);
        links_[client]->b.send(m);
    }

    /** D responses route by the message's source (dest) id. */
    void
    routeD(const DMsg &m, unsigned beats, Cycle extra)
    {
        SKIPIT_ASSERT(m.dest != invalid_agent &&
                          static_cast<std::size_t>(m.dest) < links_.size() &&
                          links_[m.dest] != nullptr,
                      "xbar: D response with unroutable dest ", m.dest);
        links_[m.dest]->d.send(m, beats, extra);
    }

    const Simulator &sim_;
    L2IndexPolicy index_;
    unsigned slices_;
    unsigned slice_bits_;
    std::vector<TLLink *> links_;
    /** ports_[slice][client]; unique_ptr keeps addresses stable. */
    std::vector<std::vector<std::unique_ptr<TLClientPort>>> ports_;
    std::vector<std::uint64_t> a_routed_;
    std::vector<std::uint64_t> c_routed_;
    std::vector<std::uint64_t> e_routed_;
    bool misroute_a_ = false;
};

inline void
TLClientPort::sendB(const BMsg &m)
{
    xbar_.routeB(client_, m);
}

inline void
TLClientPort::sendD(const DMsg &m, unsigned beats, Cycle extra)
{
    xbar_.routeD(m, beats, extra);
}

} // namespace skipit

#endif // SKIPIT_TILELINK_XBAR_HH
