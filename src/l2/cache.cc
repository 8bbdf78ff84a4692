#include "cache.hh"

#include <bit>
#include <utility>

#include "sim/bits.hh"
#include "sim/random.hh"

namespace skipit {

namespace {

/** Untracked DRAM tags (fire-and-forget victim writebacks) set this bit. */
constexpr std::uint64_t untracked_bit = std::uint64_t{1} << 63;

/** Tracked tags carry the issuing slice above the MSHR index, so the
 *  slices sharing one DRAM controller can each claim only their own
 *  completions. */
constexpr unsigned tag_slice_shift = 32;

const char *
mshrStateName(int state)
{
    switch (state) {
      case 0:
        return "idle";
      case 1:
        return "dir-lookup";
      case 2:
        return "evict-probe";
      case 3:
        return "evict-writeback";
      case 4:
        return "fetch";
      case 5:
        return "probe-holders";
      case 6:
        return "mem-writeback";
      case 7:
        return "respond";
      case 8:
        return "wait-grant-ack";
    }
    return "?";
}

} // namespace

L2Cache::L2Cache(std::string name, Simulator &sim, const L2Config &cfg,
                 Dram &dram, Stats &stats, unsigned slice)
    : Ticked(std::move(name)), sim_(sim), cfg_(cfg), dram_(dram),
      slice_(slice), slice_count_(std::max(1u, cfg.slices)),
      index_(cfg.indexPolicy()),
      dir_(cfg.sets / std::max(1u, cfg.slices), cfg.ways, index_,
           // Sibling slices draw independent replacement streams.
           cfg.replace, stirSeed(cfg.replace_seed, slice)),
      store_(cfg.sets / std::max(1u, cfg.slices), cfg.ways),
      mshrs_(cfg.mshrs), list_buffer_(cfg.list_buffer_cap)
{
    SKIPIT_ASSERT(slice_count_ <= cfg.sets &&
                      cfg.sets % slice_count_ == 0,
                  "L2 slice count must divide the set count");
    SKIPIT_ASSERT(slice_ < slice_count_, "L2 slice index out of range");
    SKIPIT_ASSERT(cfg.mshrs >= 1 && cfg.mshrs <= 64,
                  "L2 MSHR count must be 1..64: each MSHR is one bit of a "
                  "64-bit bitset");
    stats.add("l2.",
              {{"acquires", &ctr_.acquires},
               {"fills", &ctr_.fills},
               {"grants.clean", &ctr_.grants_clean},
               {"grants.dirty", &ctr_.grants_dirty},
               {"probes", &ctr_.probes},
               {"releases", &ctr_.releases},
               {"victim_writebacks", &ctr_.victim_writebacks},
               {"listbuffer.buffered", &ctr_.listbuffer_buffered},
               {"rootrelease.clean", &ctr_.rootrelease_clean},
               {"rootrelease.flush", &ctr_.rootrelease_flush},
               {"rootrelease.inval", &ctr_.rootrelease_inval},
               {"rootrelease.inval_discarded",
                &ctr_.rootrelease_inval_discarded},
               {"rootrelease.llc_skipped", &ctr_.rootrelease_llc_skipped},
               {"rootrelease.mem_writebacks",
                &ctr_.rootrelease_mem_writebacks}});
}

void
L2Cache::connectPort(AgentId id, TLLink &link)
{
    SKIPIT_ASSERT(id >= 0 && id < 64,
                  "L2 client id must be 0..63: each client is one bit of a "
                  "64-bit bitset");
    if (static_cast<std::size_t>(id) >= ports_.size())
        ports_.resize(id + 1);
    SKIPIT_ASSERT(!ports_[id].connected(), "client ", id,
                  " already connected");
    ports_[id] = TLClientPort(link, slice_, id);
    ports_[id].bindInbound(inbound_, bit(static_cast<unsigned>(id)), *this);
}

void
L2Cache::tick()
{
    drainDramResponses();
    acceptChannelC();
    acceptChannelE();
    retryListBuffer();
    acceptChannelA();
    // A parked MSHR's tick would return at once. Ticking one MSHR never
    // changes another's bit, so the walk can consume its snapshot.
    for (std::uint64_t todo = act_; todo != 0; todo &= todo - 1)
        tickMshr(static_cast<unsigned>(std::countr_zero(todo)));
}

Cycle
L2Cache::nextWake() const
{
    const Cycle now = sim_.now();

    // Buffered RootReleases are retried every cycle (conservative: the
    // retry may be blocked on a free MSHR, but spinning is always safe).
    if (!list_buffer_.empty())
        return now;

    Cycle wake = dram_.respWakeAt(); // drainDramResponses
    // A message on its way here is consumable at its arrival, and one
    // already waiting (an Acquire held back by a conflict) now.
    for (std::uint64_t todo = inbound_.any(); todo != 0; todo &= todo - 1) {
        const TLClientPort &port = ports_[std::countr_zero(todo)];
        wake = std::min(wake, std::max(port.nextArrival(), now));
    }
    // Parked MSHRs are left out: a ProbeAck or GrantAck arrival on a
    // port, or the DRAM response above, wakes them.
    for (std::uint64_t todo = act_; todo != 0; todo &= todo - 1) {
        // Every active state acts (or re-arms wait_until) once
        // wait_until passes; !dram_.canAccept() stalls just spin.
        const Mshr &m = mshrs_[std::countr_zero(todo)];
        wake = std::min(wake, std::max(m.wait_until, now));
    }
    return wake;
}

bool
L2Cache::idle() const
{
    return live_ == 0 && list_buffer_.empty();
}

bool
L2Cache::isResident(Addr line_addr) const
{
    return dir_.findWay(lineAlign(line_addr)) >= 0;
}

bool
L2Cache::isDirty(Addr line_addr) const
{
    const Addr line = lineAlign(line_addr);
    const int way = dir_.findWay(line);
    if (way < 0)
        return false;
    return dir_.entry(dir_.setOf(line), static_cast<unsigned>(way)).dirty;
}

std::optional<Addr>
L2Cache::firstForeignLine(bool scan_directory) const
{
    if (slice_count_ <= 1)
        return std::nullopt;
    for (std::uint64_t todo = live_; todo != 0; todo &= todo - 1) {
        const Mshr &m = mshrs_[std::countr_zero(todo)];
        if (!homesLine(m.line))
            return m.line;
        if (m.has_victim && !homesLine(m.victim_line))
            return m.victim_line;
    }
    for (const CMsg &msg : list_buffer_) {
        if (!homesLine(msg.addr))
            return msg.addr;
    }
    if (scan_directory) {
        for (unsigned set = 0; set < dir_.sets(); ++set) {
            for (unsigned way = 0; way < dir_.ways(); ++way) {
                if (!dir_.entry(set, way).valid)
                    continue;
                const Addr line = dir_.addrOf(set, way);
                if (!homesLine(line))
                    return line;
            }
        }
    }
    return std::nullopt;
}

bool
L2Cache::lineBusy(Addr line_addr) const
{
    const Addr line = lineAlign(line_addr);
    if (mshrForLine(line) >= 0)
        return true;
    for (const CMsg &m : list_buffer_) {
        if (m.addr == line)
            return true;
    }
    return false;
}

std::uint64_t
L2Cache::dramTagFor(unsigned mshr_idx, bool tracked) const
{
    const std::uint64_t slice_field = static_cast<std::uint64_t>(slice_)
                                      << tag_slice_shift;
    if (tracked)
        return slice_field | mshr_idx;
    return untracked_bit | slice_field | untracked_tag_;
}

bool
L2Cache::dramTagMine(std::uint64_t tag) const
{
    return ((tag >> tag_slice_shift) & ~(untracked_bit >> tag_slice_shift))
           == slice_;
}

void
L2Cache::drainDramResponses()
{
    while (dram_.respReady()) {
        if (dram_.peekResp().tag & untracked_bit) {
            // Fire-and-forget victim writeback: whichever slice looks
            // first discards it (the tick order makes this
            // deterministic).
            dram_.popResp();
            continue;
        }
        if (!dramTagMine(dram_.peekResp().tag)) {
            // Head-of-line completion belongs to a sibling slice; it
            // claims it in its own tick this same executed cycle.
            break;
        }
        const MemResp resp = dram_.popResp();
        const std::uint64_t idx =
            resp.tag & ((std::uint64_t{1} << tag_slice_shift) - 1);
        SKIPIT_ASSERT(idx < mshrs_.size(), "bad DRAM tag");
        Mshr &m = mshrs_[idx];
        SKIPIT_ASSERT(m.valid && m.awaiting_dram,
                      "DRAM response for idle MSHR");
        m.awaiting_dram = false;
        act_ |= bit(static_cast<unsigned>(idx));
        if (!resp.write) {
            SKIPIT_ASSERT(m.state == Mshr::State::Fetch, "fill outside Fetch");
            const unsigned way = static_cast<unsigned>(m.way);
            // The state policy's one decision: an inclusive fill lands
            // in the store; an exclusive one stays tag-only and the
            // Grant reads the MSHR stash.
            const bool inclusive = cfg_.policy == StateKind::Inclusive;
            const DirEntry &e = dir_.entry(m.set, way);
            if (e.valid) {
                // Only an exclusive tag-only hit fetches into a valid
                // entry; it keeps its holders and stays tag-only.
                SKIPIT_ASSERT(e.tag == dir_.tagOf(m.line) && !e.data_resident,
                              "fill into a resident or mismatched entry");
            } else {
                dir_.write(m.set, way,
                           DirEntry{.valid = true, .tag = dir_.tagOf(m.line),
                                    .data_resident = inclusive});
            }
            if (inclusive) {
                store_.write(m.set, way, resp.data);
            } else {
                m.grant_from_stash = true;
                m.fill_data = resp.data;
            }
            dir_.recordFill(m.set, way);
            m.state = Mshr::State::Respond;
            m.wait_until = sim_.now() + cfg_.data_latency;
        } else {
            SKIPIT_ASSERT(m.state == Mshr::State::MemWriteback,
                          "write ack outside MemWriteback");
            // Without llc_skip a clean line is written back too.
            const unsigned way = static_cast<unsigned>(m.way);
            DirEntry e = dir_.entry(m.set, way);
            e.dirty = false;
            dir_.write(m.set, way, e);
            m.state = Mshr::State::Respond;
            m.wait_until = sim_.now();
        }
    }
}

void
L2Cache::applyReport(unsigned set, unsigned way, const CMsg &msg)
{
    DirEntry e = dir_.entry(set, way);
    switch (msg.param) {
      case Shrink::TtoN:
      case Shrink::BtoN:
        e.dropHolder(msg.source);
        break;
      case Shrink::TtoB:
        e.downgradeHolder(msg.source);
        break;
      case Shrink::TtoT:
      case Shrink::BtoB:
      case Shrink::NtoN:
        break;
    }
    if (msg.hasData()) {
        // Dirty bytes are the one thing even an exclusive LLC must keep.
        store_.write(set, way, msg.data);
        e.dirty = true;
        e.data_resident = true;
    }
    dir_.write(set, way, e);
}

void
L2Cache::handleRelease(const CMsg &msg)
{
    const int way = dir_.findWay(msg.addr);
    SKIPIT_ASSERT(way >= 0, "voluntary Release for non-resident line ",
                  std::hex, msg.addr,
                  " violates directory holder-inclusivity");
    applyReport(dir_.setOf(msg.addr), static_cast<unsigned>(way), msg);
    ++ctr_.releases;
    DMsg ack;
    ack.op = DOp::ReleaseAck;
    ack.addr = msg.addr;
    ack.dest = msg.source;
    ack.txn = msg.txn;
    ports_[msg.source].sendD(ack, 1, cfg_.data_latency);
}

void
L2Cache::applyRootReleaseArrival(const CMsg &msg)
{
    const int way = dir_.findWay(msg.addr);
    if (way < 0) {
        SKIPIT_ASSERT(!msg.hasData(),
                      "RootReleaseData for non-resident line");
        return;
    }
    applyReport(dir_.setOf(msg.addr), static_cast<unsigned>(way), msg);
}

void
L2Cache::handleProbeAck(const CMsg &msg)
{
    const int idx = [&] {
        for (std::uint64_t todo = live_; todo != 0; todo &= todo - 1) {
            const unsigned i = static_cast<unsigned>(std::countr_zero(todo));
            const Mshr &m = mshrs_[i];
            if (m.pending_acks == 0)
                continue;
            if (m.state == Mshr::State::ProbeHolders && m.line == msg.addr)
                return static_cast<int>(i);
            if (m.state == Mshr::State::EvictProbe &&
                m.victim_line == msg.addr) {
                return static_cast<int>(i);
            }
        }
        return -1;
    }();
    SKIPIT_ASSERT(idx >= 0, "ProbeAck with no waiting MSHR, line ", std::hex,
                  msg.addr);
    Mshr &m = mshrs_[static_cast<unsigned>(idx)];

    const bool for_victim = m.state == Mshr::State::EvictProbe;
    const unsigned set = for_victim ? dir_.setOf(m.victim_line) : m.set;
    const unsigned way = static_cast<unsigned>(
        for_victim ? m.victim_way : m.way);
    applyReport(set, way, msg);
    SKIPIT_ASSERT(m.pending_acks > 0, "unexpected ProbeAck");
    if (--m.pending_acks == 0)
        act_ |= bit(static_cast<unsigned>(idx));
}

void
L2Cache::acceptChannelC()
{
    // Accepting never sends a message to this slice, so a snapshot of
    // the port mask covers every port with traffic.
    for (std::uint64_t todo = inbound_.c; todo != 0; todo &= todo - 1) {
        TLClientPort &port = ports_[std::countr_zero(todo)];
        while (port.cReady()) {
            const CMsg msg = port.cPop();
            switch (msg.op) {
              case COp::ProbeAck:
              case COp::ProbeAckData:
                handleProbeAck(msg);
                break;
              case COp::Release:
              case COp::ReleaseData:
                handleRelease(msg);
                break;
              case COp::RootRelease:
              case COp::RootReleaseData:
                // RootRelease is encoded as a ProbeAck (§5.1): like any
                // probe ack, its permission report and dirty payload take
                // effect on arrival — even if the transaction itself must
                // wait for an MSHR. A concurrent Acquire on the line then
                // grants the freshest data instead of a stale copy.
                applyRootReleaseArrival(msg);
                if (!tryAllocRootRelease(msg)) {
                    const bool buffered = list_buffer_.tryPush(msg);
                    SKIPIT_ASSERT(buffered, "L2 ListBuffer overflow; "
                                  "increase list_buffer_cap");
                    ++ctr_.listbuffer_buffered;
                }
                break;
            }
        }
    }
}

void
L2Cache::acceptChannelE()
{
    for (std::uint64_t todo = inbound_.e; todo != 0; todo &= todo - 1) {
        TLClientPort &port = ports_[std::countr_zero(todo)];
        while (port.eReady()) {
            const EMsg msg = port.ePop();
            const int idx = mshrForLine(msg.addr);
            SKIPIT_ASSERT(idx >= 0, "GrantAck with no MSHR");
            Mshr &m = mshrs_[static_cast<unsigned>(idx)];
            SKIPIT_ASSERT(m.state == Mshr::State::WaitGrantAck,
                          "GrantAck outside WaitGrantAck");
            if (m.way_locked)
                dir_.unlockWay(m.set, static_cast<unsigned>(m.way));
            if (sim_.probes().active()) {
                sim_.probes().end(sim_.now(), m.txn, "l2.mshr",
                                  name() + ".mshr" + std::to_string(idx),
                                  "GrantAck");
            }
            freeMshr(static_cast<unsigned>(idx));
        }
    }
}

void
L2Cache::retryListBuffer()
{
    while (!list_buffer_.empty()) {
        if (!tryAllocRootRelease(list_buffer_.front()))
            break;
        list_buffer_.pop();
    }
}

void
L2Cache::acceptChannelA()
{
    for (std::uint64_t todo = inbound_.a; todo != 0; todo &= todo - 1) {
        TLClientPort &port = ports_[std::countr_zero(todo)];
        // Head-of-line per client: an Acquire that conflicts with an
        // in-flight transaction back-pressures the channel.
        while (port.aReady()) {
            if (!tryAllocAcquire(port.aFront()))
                break;
            port.aPop();
        }
    }
}

int
L2Cache::findFreeMshr() const
{
    const unsigned i = static_cast<unsigned>(std::countr_one(live_));
    return i < mshrs_.size() ? static_cast<int>(i) : -1;
}

L2Cache::Mshr &
L2Cache::allocMshr(unsigned idx)
{
    live_ |= bit(idx);
    act_ |= bit(idx);
    Mshr &m = mshrs_[idx];
    m = Mshr{};
    m.valid = true;
    return m;
}

void
L2Cache::freeMshr(unsigned idx)
{
    live_ &= ~bit(idx);
    act_ &= ~bit(idx);
    mshrs_[idx].valid = false;
    mshrs_[idx].state = Mshr::State::Idle;
}

int
L2Cache::mshrForLine(Addr line) const
{
    for (std::uint64_t todo = live_; todo != 0; todo &= todo - 1) {
        const unsigned i = static_cast<unsigned>(std::countr_zero(todo));
        const Mshr &m = mshrs_[i];
        if (m.line == line)
            return static_cast<int>(i);
        // A transaction evicting @p line as its victim also owns it: a
        // concurrent transaction on the victim would race the probes and
        // the fire-and-forget writeback.
        if (m.has_victim && m.victim_line == line)
            return static_cast<int>(i);
    }
    return -1;
}

bool
L2Cache::tryAllocRootRelease(const CMsg &msg)
{
    if (mshrForLine(msg.addr) >= 0)
        return false;
    const int idx = findFreeMshr();
    if (idx < 0)
        return false;

    Mshr &m = allocMshr(static_cast<unsigned>(idx));
    m.kind = Mshr::Kind::RootRelease;
    m.state = Mshr::State::DirLookup;
    m.line = msg.addr;
    m.set = dir_.setOf(msg.addr);
    m.requester = msg.source;
    m.creq = msg;
    m.txn = msg.txn;
    m.wait_until = sim_.now() + cfg_.tag_latency;
    if (sim_.probes().active()) {
        sim_.probes().begin(
            sim_.now(), m.txn, "l2.mshr",
            name() + ".mshr" + std::to_string(idx),
            detail::concat(
                "rootrelease.",
                msg.cbo == CboKind::Flush   ? "flush"
                : msg.cbo == CboKind::Clean ? "clean"
                                            : "inval",
                " 0x", std::hex, msg.addr, " from core", std::dec,
                msg.source));
    }
    ++(msg.cbo == CboKind::Flush   ? ctr_.rootrelease_flush
       : msg.cbo == CboKind::Clean ? ctr_.rootrelease_clean
                                   : ctr_.rootrelease_inval);
    return true;
}

bool
L2Cache::tryAllocAcquire(const AMsg &msg)
{
    if (mshrForLine(msg.addr) >= 0)
        return false;
    const int idx = findFreeMshr();
    if (idx < 0)
        return false;

    Mshr &m = allocMshr(static_cast<unsigned>(idx));
    m.kind = Mshr::Kind::Acquire;
    m.state = Mshr::State::DirLookup;
    m.line = msg.addr;
    m.set = dir_.setOf(msg.addr);
    m.requester = msg.source;
    m.areq = msg;
    m.txn = msg.txn;
    m.wait_until = sim_.now() + cfg_.tag_latency;
    ++ctr_.acquires;
    if (sim_.probes().active()) {
        sim_.probes().begin(
            sim_.now(), m.txn, "l2.mshr",
            name() + ".mshr" + std::to_string(idx),
            detail::concat("acquire 0x", std::hex, msg.addr,
                           " from core", std::dec, msg.source));
    }
    return true;
}

std::uint64_t
L2Cache::holdersOf(const DirEntry &e, AgentId except) const
{
    std::uint64_t holders = e.branches;
    if (e.trunk != invalid_agent)
        holders |= bit(static_cast<unsigned>(e.trunk));
    if (except != invalid_agent)
        holders &= ~bit(static_cast<unsigned>(except));
    return holders;
}

void
L2Cache::startProbes(Mshr &m, Addr line, Cap cap, std::uint64_t targets)
{
    SKIPIT_ASSERT(targets != 0, "startProbes with no targets");
    // Parked until the last ProbeAck arrives (handleProbeAck).
    act_ &= ~bit(static_cast<unsigned>(&m - mshrs_.data()));
    m.pending_acks = static_cast<unsigned>(std::popcount(targets));
    m.probe_cap = cap;
    for (; targets != 0; targets &= targets - 1) {
        BMsg probe;
        probe.addr = line;
        probe.param = cap;
        probe.txn = m.txn;
        ports_[std::countr_zero(targets)].sendB(probe);
        ++ctr_.probes;
    }
}

void
L2Cache::tickMshr(unsigned idx)
{
    Mshr &m = mshrs_[idx];
    if (sim_.now() < m.wait_until)
        return;

    switch (m.state) {
      case Mshr::State::Idle:
        SKIPIT_PANIC("valid MSHR in Idle state");

      case Mshr::State::DirLookup: {
        const int way = dir_.findWay(m.line);
        if (way >= 0 &&
            dir_.isLocked(m.set, static_cast<unsigned>(way))) {
            // Another transaction owns this way (it chose our line as its
            // eviction victim just before we allocated); wait it out.
            m.wait_until = sim_.now() + 1;
            return;
        }
        if (m.kind == Mshr::Kind::RootRelease) {
            m.line_was_resident = way >= 0;
            if (way < 0) {
                // Not resident: either it never was, or it was evicted
                // after this request's payload was merged at arrival (in
                // which case the eviction carried the data to DRAM).
                // Nothing left to do but acknowledge.
                m.state = Mshr::State::Respond;
                m.wait_until = sim_.now();
                return;
            }
            m.way = way;
            dir_.lockWay(m.set, static_cast<unsigned>(way));
            m.way_locked = true;
            // The requester's report and any dirty payload were already
            // applied when the message arrived (applyRootReleaseArrival).
            const DirEntry &e =
                dir_.entry(m.set, static_cast<unsigned>(way));
            std::uint64_t targets = 0;
            if (m.creq.cbo == CboKind::Flush ||
                m.creq.cbo == CboKind::Inval) {
                // Revoke every copy still recorded — including the
                // requester's, which can legitimately re-hold the line
                // (clean, via a load that slipped between the CBO's
                // enqueue and its FSHR execution) after reporting NtoN.
                targets = holdersOf(e, invalid_agent);
                m.probe_cap = Cap::toN;
            } else if (e.trunk != invalid_agent && e.trunk != m.requester) {
                // Clean: only a foreign writable copy must be downgraded.
                targets = bit(static_cast<unsigned>(e.trunk));
                m.probe_cap = Cap::toB;
            }
            if (targets != 0) {
                startProbes(m, m.line, m.probe_cap, targets);
                m.state = Mshr::State::ProbeHolders;
            } else {
                m.state = Mshr::State::MemWriteback;
            }
            m.wait_until = sim_.now();
            if (sim_.probes().active())
                emitMshrState(idx);
            return;
        }

        // Acquire path.
        if (way >= 0) {
            m.way = way;
            dir_.lockWay(m.set, static_cast<unsigned>(way));
            m.way_locked = true;
            const DirEntry &e =
                dir_.entry(m.set, static_cast<unsigned>(way));
            std::uint64_t targets = 0;
            Cap cap = Cap::toN;
            if (capForGrow(m.areq.param) == Cap::toT) {
                targets = holdersOf(e, m.requester);
                cap = Cap::toN;
            } else if (e.trunk != invalid_agent &&
                       e.trunk != m.requester) {
                targets = bit(static_cast<unsigned>(e.trunk));
                cap = Cap::toB;
            }
            if (targets != 0) {
                startProbes(m, m.line, cap, targets);
                m.state = Mshr::State::ProbeHolders;
            } else if (!e.data_resident) {
                // Tag-only hit (exclusive policy): holders are settled
                // but the bytes live in DRAM; fetch before granting.
                m.state = Mshr::State::Fetch;
                m.wait_until = sim_.now();
            } else {
                m.state = Mshr::State::Respond;
                m.wait_until = sim_.now() + cfg_.data_latency;
            }
            if (sim_.probes().active())
                emitMshrState(idx);
            return;
        }

        // Miss: find a victim way to install into. Besides locked ways,
        // refuse to victimise a line that already has an MSHR allocated
        // on it but has not yet locked its way (the allocation-to-lookup
        // window): two transactions probing one line would corrupt
        // ProbeAck routing. The conflicting transaction completes and
        // frees the line, so retrying resolves.
        const int victim = dir_.pickVictim(m.set);
        bool victim_conflicts = false;
        if (victim >= 0) {
            const DirEntry &ce =
                dir_.entry(m.set, static_cast<unsigned>(victim));
            if (ce.valid) {
                const Addr cand =
                    dir_.addrOf(m.set, static_cast<unsigned>(victim));
                victim_conflicts = mshrForLine(cand) >= 0;
            }
        }
        if (victim < 0 || victim_conflicts) {
            m.wait_until = sim_.now() + 1;
            return;
        }
        m.way = victim;
        dir_.lockWay(m.set, static_cast<unsigned>(victim));
        m.way_locked = true;
        const DirEntry &v =
            dir_.entry(m.set, static_cast<unsigned>(victim));
        if (v.valid) {
            m.has_victim = true;
            m.victim_way = victim;
            m.victim_line = dir_.addrOf(m.set, static_cast<unsigned>(victim));
            const std::uint64_t targets = holdersOf(v, invalid_agent);
            if (targets != 0) {
                // Back-invalidation of every L1 copy: the directory is
                // holder-inclusive under every state policy, so an
                // evicted entry must leave no tracked L1 copies behind.
                startProbes(m, m.victim_line, Cap::toN, targets);
                m.state = Mshr::State::EvictProbe;
            } else {
                m.state = Mshr::State::EvictWriteback;
            }
        } else {
            m.state = Mshr::State::Fetch;
        }
        if (sim_.probes().active())
            emitMshrState(idx);
        return;
      }

      case Mshr::State::EvictProbe:
        if (m.pending_acks == 0)
            m.state = Mshr::State::EvictWriteback;
        return;

      case Mshr::State::EvictWriteback: {
        const unsigned way = static_cast<unsigned>(m.victim_way);
        if (dir_.entry(m.set, way).dirty) {
            // Dirty implies data_resident (applyReport sets both), so
            // the store read below is always backed by real bytes.
            if (!dram_.canAccept())
                return;
            MemReq req;
            req.write = true;
            req.addr = m.victim_line;
            req.data = store_.read(m.set, way);
            req.tag = dramTagFor(idx, false);
            req.txn = m.txn;
            ++untracked_tag_;
            dram_.submit(req);
            ++ctr_.victim_writebacks;
        }
        dir_.write(m.set, way, DirEntry{});
        m.state = Mshr::State::Fetch;
        return;
      }

      case Mshr::State::Fetch: {
        if (m.awaiting_dram)
            return; // fill happens in drainDramResponses()
        if (!dram_.canAccept())
            return;
        MemReq req;
        req.write = false;
        req.addr = m.line;
        req.tag = dramTagFor(idx, true);
        req.txn = m.txn;
        dram_.submit(req);
        m.awaiting_dram = true;
        act_ &= ~bit(idx); // parked until drainDramResponses()
        ++ctr_.fills;
        if (sim_.probes().active()) {
            sim_.probes().instant(sim_.now(), m.txn, "l2.mshr.state",
                                  name() + ".mshr" + std::to_string(idx),
                                  "fetch issued to DRAM");
        }
        return;
      }

      case Mshr::State::ProbeHolders:
        if (m.pending_acks != 0)
            return;
        if (m.kind == Mshr::Kind::RootRelease) {
            m.state = Mshr::State::MemWriteback;
        } else if (!dir_.entry(m.set, static_cast<unsigned>(m.way))
                        .data_resident) {
            // The probes settled permissions but delivered no data
            // (clean holders, tag-only entry): fetch from DRAM, which
            // is current for a clean line.
            m.state = Mshr::State::Fetch;
        } else {
            m.state = Mshr::State::Respond;
            m.wait_until = sim_.now() + cfg_.data_latency;
        }
        if (sim_.probes().active())
            emitMshrState(idx);
        return;

      case Mshr::State::MemWriteback: {
        if (m.awaiting_dram)
            return;
        const DirEntry &e = dir_.entry(m.set, static_cast<unsigned>(m.way));
        if (m.kind == Mshr::Kind::RootRelease &&
            m.creq.cbo == CboKind::Inval) {
            // CBO.INVAL discards: no DRAM write, dirty data is dropped
            // (that is its contract — the spec permits the data loss).
            DirEntry discarded = e;
            discarded.dirty = false;
            dir_.write(m.set, static_cast<unsigned>(m.way), discarded);
            ++ctr_.rootrelease_inval_discarded;
            m.state = Mshr::State::Respond;
            m.wait_until = sim_.now();
            if (sim_.probes().active()) {
                sim_.probes().instant(
                    sim_.now(), m.txn, "l2.mshr.state",
                    name() + ".mshr" + std::to_string(idx),
                    "inval discarded dirty data");
            }
            return;
        }
        // A clean line skips the DRAM write when llc_skip says memory
        // is already current (§5.5) — and unconditionally when the
        // entry is tag-only (exclusive policy): there are no bytes
        // here to write, DRAM has the only copy.
        const bool must_write =
            e.dirty || (!cfg_.llc_skip && e.data_resident);
        if (!must_write) {
            ++ctr_.rootrelease_llc_skipped;
            m.state = Mshr::State::Respond;
            m.wait_until = sim_.now();
            if (sim_.probes().active()) {
                sim_.probes().instant(
                    sim_.now(), m.txn, "l2.llcskip",
                    name() + ".mshr" + std::to_string(idx),
                    "clean in LLC: DRAM write skipped", m.line,
                    lineFingerprint(
                        e.data_resident
                            ? store_.read(m.set,
                                          static_cast<unsigned>(m.way))
                            : dram_.peekLine(m.line)));
            }
            return;
        }
        if (!dram_.canAccept())
            return;
        MemReq req;
        req.write = true;
        req.addr = m.line;
        req.data = store_.read(m.set, static_cast<unsigned>(m.way));
        req.tag = dramTagFor(idx, true);
        req.txn = m.txn;
        dram_.submit(req);
        m.awaiting_dram = true;
        act_ &= ~bit(idx); // parked until drainDramResponses()
        ++ctr_.rootrelease_mem_writebacks;
        if (sim_.probes().active()) {
            sim_.probes().instant(sim_.now(), m.txn, "l2.mshr.state",
                                  name() + ".mshr" + std::to_string(idx),
                                  "writeback issued to DRAM");
        }
        return;
      }

      case Mshr::State::Respond: {
        if (m.kind == Mshr::Kind::RootRelease) {
            if (m.line_was_resident && (m.creq.cbo == CboKind::Flush ||
                                        m.creq.cbo == CboKind::Inval)) {
                const unsigned way = static_cast<unsigned>(m.way);
                SKIPIT_ASSERT(!dir_.entry(m.set, way).heldByAnyone(),
                              "flush completing with live L1 holders");
                dir_.write(m.set, way, DirEntry{});
            }
            if (m.way_locked)
                dir_.unlockWay(m.set, static_cast<unsigned>(m.way));
            DMsg ack;
            ack.op = DOp::RootReleaseAck;
            ack.addr = m.line;
            ack.dest = m.requester;
            ack.txn = m.txn;
            ports_[m.requester].sendD(ack, 1,
                                      cfg_.rootrelease_ack_latency);
            if (sim_.probes().active()) {
                sim_.probes().end(sim_.now(), m.txn, "l2.mshr",
                                  name() + ".mshr" + std::to_string(idx),
                                  "RootReleaseAck sent");
            }
            freeMshr(idx);
            return;
        }

        // Acquire grant.
        DirEntry e = dir_.entry(m.set, static_cast<unsigned>(m.way));
        Cap cap = capForGrow(m.areq.param);
        if (cap == Cap::toB && !e.heldByAnyone()) {
            // Sole reader: grant exclusive (MESI E) like the SiFive L2.
            cap = Cap::toT;
        }
        if (cap == Cap::toT) {
            SKIPIT_ASSERT(holdersOf(e, m.requester) == 0,
                          "exclusive grant with other holders: line ",
                          std::hex, m.line, " req ", std::dec, m.requester,
                          " grow ", static_cast<int>(m.areq.param),
                          " trunk ", e.trunk, " branches ", std::hex,
                          e.branches);
            e.branches = 0;
            e.trunk = m.requester;
        } else {
            e.branches |= std::uint64_t{1} << m.requester;
        }
        dir_.write(m.set, static_cast<unsigned>(m.way), e);
        dir_.touch(m.set, static_cast<unsigned>(m.way));

        DMsg grant;
        // A stash grant is a clean fill by construction; only
        // store-resident dirty bytes ever ride GrantDataDirty.
        grant.op = (!m.grant_from_stash && e.dirty &&
                    cfg_.grant_data_dirty)
                       ? DOp::GrantDataDirty
                       : DOp::GrantData;
        grant.addr = m.line;
        grant.cap = cap;
        grant.data = m.grant_from_stash
                         ? m.fill_data
                         : store_.read(m.set, static_cast<unsigned>(m.way));
        grant.dest = m.requester;
        grant.txn = m.txn;
        ports_[m.requester].sendD(grant, TLLink::beatsFor(grant));
        ++(grant.op == DOp::GrantDataDirty ? ctr_.grants_dirty
                                           : ctr_.grants_clean);
        m.state = Mshr::State::WaitGrantAck;
        act_ &= ~bit(idx); // parked until acceptChannelE()
        return;
      }

      case Mshr::State::WaitGrantAck:
        return; // completion handled in acceptChannelE()
    }
}

void
L2Cache::emitMshrState(unsigned idx) const
{
    const Mshr &m = mshrs_[idx];
    sim_.probes().instant(sim_.now(), m.txn, "l2.mshr.state",
                          name() + ".mshr" + std::to_string(idx),
                          mshrStateName(static_cast<int>(m.state)));
}

// ---------------------------------------------------------------------
// Watchdog interface.
// ---------------------------------------------------------------------

const std::string &
L2Cache::resourcePrefix() const
{
    return name();
}

void
L2Cache::snapshotResources(
    std::vector<probe::ResourceSnapshot> &out) const
{
    for (std::uint64_t todo = live_; todo != 0; todo &= todo - 1) {
        const unsigned i = static_cast<unsigned>(std::countr_zero(todo));
        const Mshr &m = mshrs_[i];
        probe::ResourceSnapshot snap;
        snap.kind = "mshr";
        snap.index = i;
        snap.fingerprint = probe::fingerprint(
            slice_, static_cast<std::uint64_t>(m.state), m.line, m.txn,
            m.pending_acks, m.awaiting_dram);
        snap.txn = m.txn;
        snap.describe = {"state=", mshrStateName(static_cast<int>(m.state)),
                         m.awaiting_dram ? " awaiting-dram" : nullptr};
        out.push_back(snap);
    }
    std::size_t pos = 0;
    for (const CMsg &msg : list_buffer_) {
        probe::ResourceSnapshot snap;
        snap.kind = "listbuffer.txn";
        snap.index = msg.txn;
        snap.fingerprint = probe::fingerprint(slice_, msg.addr, msg.txn,
                                              pos);
        snap.txn = msg.txn;
        snap.describe = {"buffered RootRelease at position "};
        snap.position = pos;
        out.push_back(snap);
        ++pos;
    }
}

void
L2Cache::injectDropHolder(Addr addr, AgentId id)
{
    const Addr line = lineAlign(addr);
    const int way = dir_.findWay(line);
    SKIPIT_ASSERT(way >= 0, "injectDropHolder: line not resident: 0x",
                  std::hex, line);
    const unsigned set = dir_.setOf(line);
    DirEntry e = dir_.entry(set, static_cast<unsigned>(way));
    e.dropHolder(id);
    dir_.write(set, static_cast<unsigned>(way), e);
}

void
L2Cache::injectStoreCorruption(Addr addr)
{
    const Addr line = lineAlign(addr);
    const int way = dir_.findWay(line);
    SKIPIT_ASSERT(way >= 0, "injectStoreCorruption: line not resident: 0x",
                  std::hex, line);
    const unsigned set = dir_.setOf(line);
    LineData data = store_.read(set, static_cast<unsigned>(way));
    data[lineOffset(addr)] ^= 0xff;
    store_.write(set, static_cast<unsigned>(way), data);
}

void
L2Cache::injectTagOnly(Addr addr)
{
    const Addr line = lineAlign(addr);
    const int way = dir_.findWay(line);
    SKIPIT_ASSERT(way >= 0, "injectTagOnly: line not resident: 0x", std::hex,
                  line);
    const unsigned set = dir_.setOf(line);
    DirEntry e = dir_.entry(set, static_cast<unsigned>(way));
    e.data_resident = false;
    dir_.write(set, static_cast<unsigned>(way), e);
}

std::string
L2Cache::checkLiveSets() const
{
    std::uint64_t live = 0;
    std::uint64_t act = 0;
    for (unsigned i = 0; i < mshrs_.size(); ++i) {
        const Mshr &m = mshrs_[i];
        if (!m.valid)
            continue;
        live |= bit(i);
        const bool probing = m.state == Mshr::State::EvictProbe ||
                             m.state == Mshr::State::ProbeHolders;
        const bool parked = m.state == Mshr::State::WaitGrantAck ||
                            (probing && m.pending_acks > 0) ||
                            m.awaiting_dram;
        if (!parked)
            act |= bit(i);
    }
    TLInbound inbound;
    for (unsigned id = 0; id < ports_.size(); ++id) {
        const TLClientPort &p = ports_[id];
        if (!p.connected())
            continue;
        if (!p.link().a.empty(slice_))
            inbound.a |= bit(id);
        if (!p.link().c.empty(slice_))
            inbound.c |= bit(id);
        if (!p.link().e.empty(slice_))
            inbound.e |= bit(id);
    }
    const auto mismatch = [&](const char *what, std::uint64_t kept,
                              std::uint64_t want) {
        return detail::concat(name(), ": ", what, " mask is 0x", std::hex,
                              kept, ", entries say 0x", want);
    };
    if (live_ != live)
        return mismatch("live", live_, live);
    if (act_ != act)
        return mismatch("act", act_, act);
    if (inbound_.a != inbound.a)
        return mismatch("inbound A", inbound_.a, inbound.a);
    if (inbound_.c != inbound.c)
        return mismatch("inbound C", inbound_.c, inbound.c);
    if (inbound_.e != inbound.e)
        return mismatch("inbound E", inbound_.e, inbound.e);
    return {};
}

} // namespace skipit
