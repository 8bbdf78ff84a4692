/**
 * @file
 * A deterministic TileLink crossbar routing N client links onto S
 * address-interleaved manager slices.
 *
 * The paper's platform has exactly one inclusive L2, so the seed wired
 * each core's TLLink point-to-point into it. Scaled-out designs shard
 * the shared cache instead (BlackParrot's BedRock distributes its
 * directory across address-interleaved slices); this crossbar is the
 * interconnect half of that refactor:
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
 * accept logic in cycle T, exactly as with direct point-to-point
 * wiring. With one slice the routed system is bit-identical to the
 * pre-crossbar topology (asserted by the fig09 equivalence test).
 *
 * TLClientPort is the manager-side abstraction the L2 consumes: a
 * TLDirectPort wraps a raw TLLink (unit tests, legacy wiring), while
 * the crossbar's internal endpoints expose the routed per-slice view.
 * An endpoint keeps one bit of its slice's inbound mask set exactly
 * while a message waits in it, so the slice visits only those ports,
 * and wakes the slice when a message arrives; a direct port cannot see
 * its link's sends and is polled every cycle.
 */

#ifndef SKIPIT_TILELINK_XBAR_HH
#define SKIPIT_TILELINK_XBAR_HH

#include <deque>
#include <memory>
#include <vector>

#include "l2/index.hh"
#include "link.hh"
#include "messages.hh"
#include "sim/logging.hh"
#include "sim/ticked.hh"

namespace skipit {

/**
 * The manager-side view of one client connection. The inclusive cache
 * accepts inbound A/C/E traffic and issues outbound B/D responses
 * through this interface without knowing whether the other end is a
 * raw link or a crossbar slice endpoint.
 */
class TLClientPort
{
  public:
    virtual ~TLClientPort() = default;

    /// @name Inbound (client -> manager)
    /// @{
    virtual bool aReady() const = 0;
    virtual const AMsg &aFront() const = 0;
    virtual AMsg aPop() = 0;
    virtual bool cReady() const = 0;
    virtual CMsg cPop() = 0;
    virtual bool eReady() const = 0;
    virtual EMsg ePop() = 0;
    /// @}

    /// @name Outbound (manager -> client)
    /// @{
    virtual void sendB(const BMsg &m) = 0;
    virtual void sendD(const DMsg &m, unsigned beats, Cycle extra = 0) = 0;
    /// @}

    /** Earliest cycle inbound work may become consumable, clamped to
     *  @p now; wake_never when nothing is in flight. Asked only of ports
     *  that refuse bindInbound(); the default, @p now, is always safe. */
    virtual Cycle inboundWakeAt(Cycle now) const { return now; }

    /**
     * Bind this port to @p bit of its @p manager's inbound @p mask: from
     * now on the port keeps that bit set exactly while an A, C or E
     * message waits in it, and wakes @p manager when one arrives.
     * @return false when the port cannot see its arrivals, so the
     *         manager must poll it every cycle
     */
    virtual bool
    bindInbound(std::uint64_t &mask, std::uint64_t bit, Ticked &manager)
    {
        (void)mask;
        (void)bit;
        (void)manager;
        return false;
    }
};

/** A port wrapping the manager end of a point-to-point TLLink. */
class TLDirectPort final : public TLClientPort
{
  public:
    explicit TLDirectPort(TLLink &link) : link_(link) {}

    bool aReady() const override { return link_.a.ready(); }
    const AMsg &aFront() const override { return link_.a.front(); }
    AMsg aPop() override { return link_.a.recv(); }
    bool cReady() const override { return link_.c.ready(); }
    CMsg cPop() override { return link_.c.recv(); }
    bool eReady() const override { return link_.e.ready(); }
    EMsg ePop() override { return link_.e.recv(); }

    void sendB(const BMsg &m) override { link_.b.send(m); }

    void
    sendD(const DMsg &m, unsigned beats, Cycle extra = 0) override
    {
        link_.d.send(m, beats, extra);
    }

    Cycle
    inboundWakeAt(Cycle now) const override
    {
        Cycle wake = Ticked::wake_never;
        if (!link_.a.empty())
            wake = std::min(wake, std::max(link_.a.nextArrival(), now));
        if (!link_.c.empty())
            wake = std::min(wake, std::max(link_.c.nextArrival(), now));
        if (!link_.e.empty())
            wake = std::min(wake, std::max(link_.e.nextArrival(), now));
        return wake;
    }

  private:
    TLLink &link_;
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
     *  first tick, then port() the endpoints into the slices. */
    void
    connectClient(AgentId id, TLLink &link)
    {
        SKIPIT_ASSERT(id >= 0 && id < 64,
                      "xbar client id must be 0..63: each client is one "
                      "bit of a 64-bit bitset");
        if (static_cast<std::size_t>(id) >= links_.size()) {
            links_.resize(id + 1, nullptr);
            for (auto &row : endpoints_)
                row.resize(id + 1);
        }
        SKIPIT_ASSERT(links_[id] == nullptr, "xbar client ", id,
                      " already connected");
        links_[id] = &link;
        if (endpoints_.empty())
            endpoints_.resize(slices_);
        for (unsigned s = 0; s < slices_; ++s) {
            if (endpoints_[s].size() < links_.size())
                endpoints_[s].resize(links_.size());
            endpoints_[s][id] = std::make_unique<Endpoint>(*this, id);
        }
    }

    /** The routed port slice @p slice sees for client @p client. */
    TLClientPort &
    port(unsigned slice, AgentId client)
    {
        SKIPIT_ASSERT(slice < slices_ &&
                          static_cast<std::size_t>(client) <
                              endpoints_[slice].size() &&
                          endpoints_[slice][client] != nullptr,
                      "xbar port (", slice, ", ", client, ") not wired");
        return *endpoints_[slice][client];
    }

    /**
     * Drain every wire-arrived A/C/E message into its slice endpoint,
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

    /** Wake when the next client-side message lands on a wire; routed
     *  endpoints wake their slices themselves. */
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

    /** No routed message waiting in any endpoint queue. */
    bool
    idle() const
    {
        for (const auto &row : endpoints_) {
            for (const auto &ep : row) {
                if (ep != nullptr && (!ep->aq.empty() || !ep->cq.empty() ||
                                      !ep->eq.empty())) {
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
    /** Routed per-(slice, client) queues; the slice consumes these. */
    struct Endpoint final : public TLClientPort
    {
        Endpoint(TLXbar &xbar, AgentId client)
            : xbar(xbar), client(client)
        {
        }

        bool aReady() const override { return !aq.empty(); }
        const AMsg &aFront() const override { return aq.front(); }

        AMsg
        aPop() override
        {
            AMsg m = aq.front();
            aq.pop_front();
            settle();
            return m;
        }

        bool cReady() const override { return !cq.empty(); }

        CMsg
        cPop() override
        {
            CMsg m = cq.front();
            cq.pop_front();
            settle();
            return m;
        }

        bool eReady() const override { return !eq.empty(); }

        EMsg
        ePop() override
        {
            EMsg m = eq.front();
            eq.pop_front();
            settle();
            return m;
        }

        void sendB(const BMsg &m) override { xbar.routeB(client, m); }

        void
        sendD(const DMsg &m, unsigned beats, Cycle extra = 0) override
        {
            xbar.routeD(m, beats, extra);
        }

        bool
        bindInbound(std::uint64_t &mask, std::uint64_t bit,
                    Ticked &slice) override
        {
            inbound = &mask;
            inbound_bit = bit;
            manager = &slice;
            settle();
            return true;
        }

        /** The crossbar queued a message here: the slice can take it in
         *  this cycle (it ticks after the crossbar). */
        void
        arrived()
        {
            *inbound |= inbound_bit;
            if (manager != nullptr)
                manager->wakeAt(xbar.sim_.now());
        }

        /** Keep the inbound bit equal to "a message waits here". */
        void
        settle()
        {
            if (aq.empty() && cq.empty() && eq.empty())
                *inbound &= ~inbound_bit;
            else
                *inbound |= inbound_bit;
        }

        TLXbar &xbar;
        AgentId client;
        std::deque<AMsg> aq;
        std::deque<CMsg> cq;
        std::deque<EMsg> eq;
        /** Until a slice binds the port, it points at a spare word of
         *  its own with an empty bit, so arrivals and pops change
         *  nothing. */
        std::uint64_t unbound = 0;
        std::uint64_t *inbound = &unbound;
        std::uint64_t inbound_bit = 0;
        Ticked *manager = nullptr;
    };

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
            Endpoint &ep = *endpoints_[s][c];
            ep.aq.push_back(std::move(m));
            ep.arrived();
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
            Endpoint &ep = *endpoints_[s][c];
            ep.cq.push_back(std::move(m));
            ep.arrived();
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
            Endpoint &ep = *endpoints_[s][c];
            ep.eq.push_back(std::move(m));
            ep.arrived();
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
    /** endpoints_[slice][client]; unique_ptr keeps addresses stable. */
    std::vector<std::vector<std::unique_ptr<Endpoint>>> endpoints_;
    std::vector<std::uint64_t> a_routed_;
    std::vector<std::uint64_t> c_routed_;
    std::vector<std::uint64_t> e_routed_;
    bool misroute_a_ = false;
};

} // namespace skipit

#endif // SKIPIT_TILELINK_XBAR_HH
