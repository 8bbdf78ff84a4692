#include "cache.hh"

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
      index_(cfg.indexPolicy()), policy_(makeStatePolicy(cfg.policy)),
      dir_(cfg.sets / std::max(1u, cfg.slices), cfg.ways, index_,
           cfg.replace,
           // Stir the slice index in so sibling slices' random
           // replacement streams are independent.
           cfg.replace_seed * 0x9e3779b97f4a7c15ULL + slice + 1),
      store_(cfg.sets / std::max(1u, cfg.slices), cfg.ways),
      mshrs_(cfg.mshrs), list_buffer_(cfg.list_buffer_cap)
{
    SKIPIT_ASSERT(slice_count_ <= cfg.sets &&
                      cfg.sets % slice_count_ == 0,
                  "L2 slice count must divide the set count");
    SKIPIT_ASSERT(slice_ < slice_count_, "L2 slice index out of range");
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
L2Cache::connectClient(AgentId id, TLLink &link)
{
    owned_ports_.push_back(std::make_unique<TLDirectPort>(link));
    connectPort(id, *owned_ports_.back());
}

void
L2Cache::connectPort(AgentId id, TLClientPort &port)
{
    if (static_cast<std::size_t>(id) >= ports_.size())
        ports_.resize(id + 1, nullptr);
    SKIPIT_ASSERT(ports_[id] == nullptr, "client ", id, " already connected");
    ports_[id] = &port;
}

void
L2Cache::tick()
{
    drainDramResponses();
    acceptChannelC();
    acceptChannelE();
    retryListBuffer();
    acceptChannelA();
    for (unsigned i = 0; i < mshrs_.size(); ++i)
        tickMshr(i);
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
    for (const Mshr &m : mshrs_) {
        if (!m.valid)
            continue;
        if (m.state == Mshr::State::WaitGrantAck)
            continue; // woken by the channel E arrival below
        if ((m.state == Mshr::State::EvictProbe ||
             m.state == Mshr::State::ProbeHolders) &&
            m.pending_acks > 0) {
            continue; // woken by the ProbeAck arrival on channel C
        }
        if (m.awaiting_dram)
            continue; // woken by the DRAM response above
        // Every remaining state acts (or re-arms wait_until) once
        // wait_until passes; !dram_.canAccept() stalls just spin.
        wake = std::min(wake, std::max(m.wait_until, now));
    }
    for (const TLClientPort *p : ports_) {
        if (p != nullptr)
            wake = std::min(wake, p->inboundWakeAt(now));
    }
    return wake;
}

bool
L2Cache::idle() const
{
    for (const Mshr &m : mshrs_) {
        if (m.valid)
            return false;
    }
    return list_buffer_.empty();
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
    for (const Mshr &m : mshrs_) {
        if (!m.valid)
            continue;
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
        if (!resp.write) {
            // Fill from memory: the state policy decides whether the
            // bytes land in the store (inclusive) or ride the MSHR
            // stash to the Grant (exclusive).
            SKIPIT_ASSERT(m.state == Mshr::State::Fetch, "fill outside Fetch");
            DirEntry &e = dir_.entry(m.set, static_cast<unsigned>(m.way));
            m.grant_from_stash = !policy_->applyFill(
                e, store_, m.set, static_cast<unsigned>(m.way),
                dir_.tagOf(m.line), resp.data);
            if (m.grant_from_stash)
                m.fill_data = resp.data;
            dir_.recordFill(m.set, static_cast<unsigned>(m.way));
            m.state = Mshr::State::Respond;
            m.wait_until = sim_.now() + cfg_.data_latency;
        } else {
            SKIPIT_ASSERT(m.state == Mshr::State::MemWriteback,
                          "write ack outside MemWriteback");
            DirEntry &e = dir_.entry(m.set, static_cast<unsigned>(m.way));
            e.dirty = false;
            m.state = Mshr::State::Respond;
            m.wait_until = sim_.now();
        }
    }
}

void
L2Cache::applyReport(DirEntry &e, AgentId src, Shrink param)
{
    switch (param) {
      case Shrink::TtoN:
      case Shrink::BtoN:
        e.dropHolder(src);
        break;
      case Shrink::TtoB:
        e.downgradeHolder(src);
        break;
      case Shrink::TtoT:
      case Shrink::BtoB:
      case Shrink::NtoN:
        break;
    }
}

void
L2Cache::handleRelease(const CMsg &msg)
{
    const int way = dir_.findWay(msg.addr);
    SKIPIT_ASSERT(way >= 0, "voluntary Release for non-resident line ",
                  std::hex, msg.addr,
                  " violates directory holder-inclusivity");
    const unsigned set = dir_.setOf(msg.addr);
    DirEntry &e = dir_.entry(set, static_cast<unsigned>(way));
    applyReport(e, msg.source, msg.param);
    if (msg.op == COp::ReleaseData) {
        policy_->applyWriteback(e, store_, set, static_cast<unsigned>(way),
                                msg.data);
    }
    ++ctr_.releases;
    DMsg ack;
    ack.op = DOp::ReleaseAck;
    ack.addr = msg.addr;
    ack.dest = msg.source;
    ack.txn = msg.txn;
    ports_[msg.source]->sendD(ack, 1, cfg_.data_latency);
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
    const unsigned set = dir_.setOf(msg.addr);
    DirEntry &e = dir_.entry(set, static_cast<unsigned>(way));
    applyReport(e, msg.source, msg.param);
    if (msg.hasData()) {
        policy_->applyWriteback(e, store_, set, static_cast<unsigned>(way),
                                msg.data);
    }
}

void
L2Cache::handleProbeAck(const CMsg &msg)
{
    const int idx = [&] {
        for (unsigned i = 0; i < mshrs_.size(); ++i) {
            const Mshr &m = mshrs_[i];
            if (!m.valid || m.pending_acks == 0)
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
    DirEntry &e = dir_.entry(set, way);
    applyReport(e, msg.source, msg.param);
    if (msg.op == COp::ProbeAckData)
        policy_->applyWriteback(e, store_, set, way, msg.data);
    SKIPIT_ASSERT(m.pending_acks > 0, "unexpected ProbeAck");
    --m.pending_acks;
}

void
L2Cache::acceptChannelC()
{
    for (TLClientPort *port : ports_) {
        if (!port)
            continue;
        while (port->cReady()) {
            const CMsg msg = port->cPop();
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
    for (TLClientPort *port : ports_) {
        if (!port)
            continue;
        while (port->eReady()) {
            const EMsg msg = port->ePop();
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
            m.valid = false;
            m.state = Mshr::State::Idle;
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
    for (TLClientPort *port : ports_) {
        if (!port)
            continue;
        // Head-of-line per client: an Acquire that conflicts with an
        // in-flight transaction back-pressures the channel.
        while (port->aReady()) {
            if (!tryAllocAcquire(port->aFront()))
                break;
            port->aPop();
        }
    }
}

int
L2Cache::findFreeMshr() const
{
    for (unsigned i = 0; i < mshrs_.size(); ++i) {
        if (!mshrs_[i].valid)
            return static_cast<int>(i);
    }
    return -1;
}

int
L2Cache::mshrForLine(Addr line) const
{
    for (unsigned i = 0; i < mshrs_.size(); ++i) {
        const Mshr &m = mshrs_[i];
        if (!m.valid)
            continue;
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

    Mshr &m = mshrs_[static_cast<unsigned>(idx)];
    m = Mshr{};
    m.valid = true;
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

    Mshr &m = mshrs_[static_cast<unsigned>(idx)];
    m = Mshr{};
    m.valid = true;
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

std::vector<AgentId>
L2Cache::holdersOf(const DirEntry &e, AgentId except) const
{
    std::vector<AgentId> out;
    for (AgentId id = 0; id < static_cast<AgentId>(ports_.size()); ++id) {
        if (id == except)
            continue;
        if (e.heldBy(id))
            out.push_back(id);
    }
    return out;
}

void
L2Cache::startProbes(Mshr &m, Addr line, Cap cap,
                     const std::vector<AgentId> &targets)
{
    SKIPIT_ASSERT(!targets.empty(), "startProbes with no targets");
    m.pending_acks = static_cast<unsigned>(targets.size());
    m.probe_cap = cap;
    for (AgentId id : targets) {
        BMsg probe;
        probe.addr = line;
        probe.param = cap;
        probe.txn = m.txn;
        ports_[id]->sendB(probe);
        ++ctr_.probes;
    }
}

void
L2Cache::tickMshr(unsigned idx)
{
    Mshr &m = mshrs_[idx];
    if (!m.valid || sim_.now() < m.wait_until)
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
            DirEntry &e = dir_.entry(m.set, static_cast<unsigned>(way));
            std::vector<AgentId> targets;
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
                targets.push_back(e.trunk);
                m.probe_cap = Cap::toB;
            }
            if (!targets.empty()) {
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
            DirEntry &e = dir_.entry(m.set, static_cast<unsigned>(way));
            std::vector<AgentId> targets;
            Cap cap = Cap::toN;
            if (capForGrow(m.areq.param) == Cap::toT) {
                targets = holdersOf(e, m.requester);
                cap = Cap::toN;
            } else if (e.trunk != invalid_agent &&
                       e.trunk != m.requester) {
                targets.push_back(e.trunk);
                cap = Cap::toB;
            }
            if (!targets.empty()) {
                startProbes(m, m.line, cap, targets);
                m.state = Mshr::State::ProbeHolders;
            } else if (policy_->needsFetch(e)) {
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
        DirEntry &v = dir_.entry(m.set, static_cast<unsigned>(victim));
        if (v.valid) {
            m.has_victim = true;
            m.victim_way = victim;
            m.victim_line = dir_.addrOf(m.set, static_cast<unsigned>(victim));
            const std::vector<AgentId> targets =
                holdersOf(v, invalid_agent);
            if (!targets.empty()) {
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
        DirEntry &v = dir_.entry(m.set, static_cast<unsigned>(m.victim_way));
        if (v.dirty) {
            // dirty implies data_resident under every state policy, so
            // the store read below is always backed by real bytes.
            if (!dram_.canAccept())
                return;
            MemReq req;
            req.write = true;
            req.addr = m.victim_line;
            req.data = store_.read(m.set,
                                   static_cast<unsigned>(m.victim_way));
            req.tag = dramTagFor(idx, false);
            req.txn = m.txn;
            ++untracked_tag_;
            dram_.submit(req);
            ++ctr_.victim_writebacks;
        }
        v = DirEntry{};
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
        } else if (policy_->needsFetch(
                       dir_.entry(m.set, static_cast<unsigned>(m.way)))) {
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
        DirEntry &e = dir_.entry(m.set, static_cast<unsigned>(m.way));
        if (m.kind == Mshr::Kind::RootRelease &&
            m.creq.cbo == CboKind::Inval) {
            // CBO.INVAL discards: no DRAM write, dirty data is dropped
            // (that is its contract — the spec permits the data loss).
            e.dirty = false;
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
                DirEntry &e = dir_.entry(m.set,
                                         static_cast<unsigned>(m.way));
                SKIPIT_ASSERT(!e.heldByAnyone(),
                              "flush completing with live L1 holders");
                e = DirEntry{};
            }
            if (m.way_locked)
                dir_.unlockWay(m.set, static_cast<unsigned>(m.way));
            DMsg ack;
            ack.op = DOp::RootReleaseAck;
            ack.addr = m.line;
            ack.dest = m.requester;
            ack.txn = m.txn;
            ports_[m.requester]->sendD(ack, 1,
                                       cfg_.rootrelease_ack_latency);
            if (sim_.probes().active()) {
                sim_.probes().end(sim_.now(), m.txn, "l2.mshr",
                                  name() + ".mshr" + std::to_string(idx),
                                  "RootReleaseAck sent");
            }
            m.valid = false;
            m.state = Mshr::State::Idle;
            return;
        }

        // Acquire grant.
        DirEntry &e = dir_.entry(m.set, static_cast<unsigned>(m.way));
        Cap cap = capForGrow(m.areq.param);
        if (cap == Cap::toB && !e.heldByAnyone()) {
            // Sole reader: grant exclusive (MESI E) like the SiFive L2.
            cap = Cap::toT;
        }
        if (cap == Cap::toT) {
            SKIPIT_ASSERT(holdersOf(e, m.requester).empty(),
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
        ports_[m.requester]->sendD(grant, TLLink::beatsFor(grant));
        ++(grant.op == DOp::GrantDataDirty ? ctr_.grants_dirty
                                           : ctr_.grants_clean);
        m.state = Mshr::State::WaitGrantAck;
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

void
L2Cache::snapshotResources(
    std::vector<probe::ResourceSnapshot> &out) const
{
    for (unsigned i = 0; i < mshrs_.size(); ++i) {
        const Mshr &m = mshrs_[i];
        if (!m.valid)
            continue;
        probe::ResourceSnapshot snap;
        snap.name = name() + ".mshr" + std::to_string(i);
        snap.fingerprint = probe::fingerprint(
            slice_, static_cast<std::uint64_t>(m.state), m.line, m.txn,
            m.pending_acks, m.awaiting_dram);
        snap.txn = m.txn;
        snap.describe =
            std::string("state=") +
            mshrStateName(static_cast<int>(m.state)) +
            (m.awaiting_dram ? " awaiting-dram" : "");
        out.push_back(std::move(snap));
    }
    std::size_t pos = 0;
    for (const CMsg &msg : list_buffer_) {
        probe::ResourceSnapshot snap;
        snap.name = name() + ".listbuffer.txn" + std::to_string(msg.txn);
        snap.fingerprint = probe::fingerprint(slice_, msg.addr, msg.txn,
                                              pos);
        snap.txn = msg.txn;
        snap.describe = "buffered RootRelease at position " +
                        std::to_string(pos);
        out.push_back(std::move(snap));
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
    dir_.entry(dir_.setOf(line), static_cast<unsigned>(way)).dropHolder(id);
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

} // namespace skipit
