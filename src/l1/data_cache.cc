#include "data_cache.hh"

#include <cstring>
#include <utility>

namespace skipit {

namespace {

const char *
fshrStateName(Fshr::State st)
{
    switch (st) {
      case Fshr::State::Invalid:
        return "invalid";
      case Fshr::State::MetaWrite:
        return "meta-write";
      case Fshr::State::FillBuffer:
        return "fill-buffer";
      case Fshr::State::RootReleaseData:
        return "root-release-data";
      case Fshr::State::RootRelease:
        return "root-release";
      case Fshr::State::RootReleaseAck:
        return "root-release-ack";
    }
    return "?";
}

const char *
cboName(CboKind k)
{
    switch (k) {
      case CboKind::Clean:
        return "clean";
      case CboKind::Flush:
        return "flush";
      case CboKind::Inval:
        return "inval";
    }
    return "?";
}

} // namespace

DataCache::DataCache(std::string name, Simulator &sim, const L1Config &cfg,
                     AgentId id, TLLink &link, Stats &stats)
    : Ticked(std::move(name)), sim_(sim), cfg_(cfg), id_(id), link_(link),
      arrays_(cfg.sets, cfg.ways), mshrs_(cfg.mshrs),
      flush_q_(cfg.flush_queue_depth), fshrs_(cfg.fshrs),
      in_q_(sim, 1), resp_q_(sim)
{
    SKIPIT_ASSERT(cfg.fshrs > 0 && cfg.flush_queue_depth > 0,
                  "flush unit needs at least one FSHR and queue slot");
    stats.add("l1." + std::to_string(id) + ".",
              {{"load_hits", &ctr_.load_hits},
               {"load_misses", &ctr_.load_misses},
               {"store_hits", &ctr_.store_hits},
               {"store_misses", &ctr_.store_misses},
               {"store_upgrades", &ctr_.store_upgrades},
               {"fshr_forwards", &ctr_.fshr_forwards},
               {"nacks", &ctr_.nacks},
               {"mshr_primary", &ctr_.mshr_primary},
               {"mshr_secondary", &ctr_.mshr_secondary},
               {"mshr_full", &ctr_.mshr_full},
               {"fills", &ctr_.fills},
               {"evictions", &ctr_.evictions},
               {"writebacks", &ctr_.writebacks},
               {"probes", &ctr_.probes},
               {"cbo_clean_accepted", &ctr_.cbo_clean_accepted},
               {"cbo_flush_accepted", &ctr_.cbo_flush_accepted},
               {"cbo_inval_accepted", &ctr_.cbo_inval_accepted},
               {"cbo_zero", &ctr_.cbo_zero},
               {"cbo_coalesced", &ctr_.cbo_coalesced},
               {"skipit_dropped", &ctr_.skipit_dropped},
               {"flushq_full", &ctr_.flushq_full},
               {"fshr_allocs", &ctr_.fshr_allocs},
               {"fshr_completions", &ctr_.fshr_completions}});
}

void
DataCache::tick()
{
    processChannelD();
    processProbe();
    processCpuRequests();
    flushUnitDequeue();
    tickFshrs();
    tickWbu();
    issueAcquires();
}

Cycle
DataCache::respWakeAt() const
{
    if (resp_q_.empty())
        return Ticked::wake_never;
    return std::max(sim_.now(), resp_q_.frontReadyAt());
}

Cycle
DataCache::nextWake() const
{
    const Cycle now = sim_.now();

    // Units that make progress on their own every cycle. The probe unit
    // is treated as always-active while busy even though CheckConflicts
    // can spin — conservative, never wrong.
    if (probe_.busy() || wbu_.state == WritebackUnit::State::SendRelease ||
        !flush_q_.empty()) {
        return now;
    }
    for (const L1Mshr &m : mshrs_) {
        // AwaitGrant resolves via channel D, tracked below.
        if (m.valid && m.state == L1Mshr::State::AwaitIssue)
            return now;
    }

    Cycle wake = Ticked::wake_never;
    for (const Fshr &f : fshrs_) {
        // RootReleaseAck completes from channel D / the L2's progress.
        if (!f.busy() || f.state == Fshr::State::RootReleaseAck)
            continue;
        wake = std::min(wake, std::max(f.wait_until, now));
    }
    if (!in_q_.empty())
        wake = std::min(wake, std::max(in_q_.frontReadyAt(), now));
    if (!link_.b.empty())
        wake = std::min(wake, std::max(link_.b.nextArrival(), now));
    if (!link_.d.empty())
        wake = std::min(wake, std::max(link_.d.nextArrival(), now));
    // resp_q_ is the LSU's wake source (respWakeAt), not ours: delivering
    // a response is the LSU's tick, this cache's tick ignores it.
    return wake;
}

ClientState
DataCache::lineState(Addr addr) const
{
    const int way = arrays_.findWay(lineAlign(addr));
    if (way < 0)
        return ClientState::Nothing;
    return arrays_.meta(arrays_.setOf(lineAlign(addr)),
                        static_cast<unsigned>(way)).state;
}

bool
DataCache::lineDirty(Addr addr) const
{
    const int way = arrays_.findWay(lineAlign(addr));
    if (way < 0)
        return false;
    return arrays_.meta(arrays_.setOf(lineAlign(addr)),
                        static_cast<unsigned>(way)).dirty;
}

bool
DataCache::lineSkip(Addr addr) const
{
    const int way = arrays_.findWay(lineAlign(addr));
    if (way < 0)
        return false;
    return arrays_.meta(arrays_.setOf(lineAlign(addr)),
                        static_cast<unsigned>(way)).skip;
}

bool
DataCache::peekWord(Addr addr, std::uint64_t &value) const
{
    const Addr line = lineAlign(addr);
    const int way = arrays_.findWay(line);
    if (way < 0)
        return false;
    value = readWord(arrays_.data(arrays_.setOf(line),
                                  static_cast<unsigned>(way)),
                     addr, 8);
    return true;
}

bool
DataCache::lineBusy(Addr addr) const
{
    const Addr line = lineAlign(addr);
    if (fshrForLine(line) >= 0 || flushQueueHasLine(line))
        return true;
    if (probe_.busy() && probe_.line == line)
        return true;
    if (wbu_.conflictsWith(line))
        return true;
    return mshrForLine(line) >= 0;
}

bool
DataCache::quiesced() const
{
    if (flush_counter_ > 0 || wbu_.busy() || probe_.busy())
        return false;
    for (const L1Mshr &m : mshrs_) {
        if (m.valid)
            return false;
    }
    return in_q_.empty() && resp_q_.empty();
}

void
DataCache::submit(const CpuReq &req)
{
    SKIPIT_ASSERT(req.source == invalid_agent || req.source == id_,
                  "CpuReq submitted to a cache with a different source id");
    in_q_.push(req);
}

void
DataCache::respond(const CpuReq &req, std::uint64_t data, Cycle delay)
{
    resp_q_.pushIn(CpuResp{req.id, false, data}, delay);
}

void
DataCache::respondNack(const CpuReq &req)
{
    resp_q_.pushIn(CpuResp{req.id, true, 0}, 1);
    ++ctr_.nacks;
}

std::uint64_t
DataCache::readWord(const LineData &line, Addr addr, unsigned size) const
{
    SKIPIT_ASSERT(size <= 8 && lineOffset(addr) + size <= line_bytes,
                  "access crosses line boundary");
    std::uint64_t v = 0;
    std::memcpy(&v, line.data() + lineOffset(addr), size);
    return v;
}

void
DataCache::writeWord(LineData &line, Addr addr, unsigned size,
                     std::uint64_t value)
{
    SKIPIT_ASSERT(size <= 8 && lineOffset(addr) + size <= line_bytes,
                  "access crosses line boundary");
    std::memcpy(line.data() + lineOffset(addr), &value, size);
}

// ---------------------------------------------------------------------
// Channel D: grants for MSHRs, acks for the WBU and FSHRs.
// ---------------------------------------------------------------------

void
DataCache::processChannelD()
{
    while (link_.d.ready()) {
        const DMsg msg = link_.d.recv();
        switch (msg.op) {
          case DOp::Grant:
          case DOp::GrantData:
          case DOp::GrantDataDirty:
            fillFromGrant(msg);
            break;
          case DOp::ReleaseAck:
            SKIPIT_ASSERT(wbu_.state == WritebackUnit::State::AwaitAck &&
                          wbu_.line == msg.addr,
                          "ReleaseAck without matching writeback");
            if (sim_.probes().active()) {
                sim_.probes().end(sim_.now(), wbu_.txn, "l1.wbu",
                                  name() + ".wbu", "ReleaseAck");
            }
            wbu_.state = WritebackUnit::State::Idle;
            break;
          case DOp::RootReleaseAck: {
            const int idx = fshrForLine(msg.addr);
            SKIPIT_ASSERT(idx >= 0, "RootReleaseAck without FSHR");
            Fshr &f = fshrs_[static_cast<unsigned>(idx)];
            SKIPIT_ASSERT(f.state == Fshr::State::RootReleaseAck,
                          "RootReleaseAck in state other than wait");
            completeFshr(f);
            break;
          }
        }
    }
}

void
DataCache::fillFromGrant(const DMsg &grant)
{
    const int idx = mshrForLine(grant.addr);
    SKIPIT_ASSERT(idx >= 0, "grant without MSHR for line");
    L1Mshr &m = mshrs_[static_cast<unsigned>(idx)];
    SKIPIT_ASSERT(m.state == L1Mshr::State::AwaitGrant,
                  "grant before Acquire was issued");

    // The fill way was reserved (and any victim evicted) at allocation.
    const unsigned set = m.fill_set;
    const unsigned way = m.fill_way;
    SKIPIT_ASSERT(!arrays_.meta(set, way).valid() ||
                  arrays_.meta(set, way).tag == arrays_.tagOf(grant.addr),
                  "reserved fill way holds a foreign line");

    L1Meta &meta = arrays_.meta(set, static_cast<unsigned>(way));
    meta.state = stateForCap(grant.cap);
    meta.tag = arrays_.tagOf(grant.addr);
    meta.dirty = false;
    // Skip It (§6.1): GrantData proves the line is persisted below;
    // GrantDataDirty proves it is not.
    meta.skip = cfg_.skip_it && grant.op == DOp::GrantData;
    arrays_.data(set, static_cast<unsigned>(way)) = grant.data;
    arrays_.touch(set, static_cast<unsigned>(way));

    EMsg ack;
    ack.addr = grant.addr;
    ack.source = id_;
    ack.txn = m.txn;
    link_.e.send(ack);

    if (sim_.probes().active()) {
        sim_.probes().end(
            sim_.now(), m.txn, "l1.mshr",
            name() + ".mshr" +
                std::to_string(static_cast<unsigned>(idx)),
            grant.op == DOp::GrantDataDirty ? "filled (GrantDataDirty)"
                                            : "filled");
    }
    replay(m, set, static_cast<unsigned>(way));
    m = L1Mshr{};
    ++ctr_.fills;
}

void
DataCache::replay(L1Mshr &m, unsigned fill_set, unsigned fill_way)
{
    // Replay the RPQ in arrival order (§3.3). Replays drain one per cycle;
    // responses are staggered accordingly. Applying all architectural
    // effects in this cycle keeps probes from observing a partial replay,
    // which is what BOOM's mshr_rdy interlock guarantees in hardware.
    L1Meta &meta = arrays_.meta(fill_set, fill_way);
    LineData &data = arrays_.data(fill_set, fill_way);
    Cycle extra = 0;
    for (const CpuReq &req : m.rpq) {
        if (req.kind == CpuOpKind::Load) {
            respond(req, readWord(data, req.addr, req.size),
                    cfg_.hit_latency + extra);
        } else if (req.kind == CpuOpKind::CboZero) {
            SKIPIT_ASSERT(meta.state == ClientState::Trunk,
                          "zero replay without write permissions");
            data = LineData{};
            meta.dirty = true;
            meta.skip = false;
        } else {
            SKIPIT_ASSERT(req.kind == CpuOpKind::Store,
                          "CBO.CLEAN/FLUSH/INVAL must never enter an RPQ");
            SKIPIT_ASSERT(meta.state == ClientState::Trunk,
                          "store replay without write permissions");
            writeWord(data, req.addr, req.size, req.data);
            meta.dirty = true;
            // Dirtying must clear the skip bit, not rely on the dirty
            // bit masking it: CBO.CLEAN marks the line clean again when
            // it captures the data into the FSHR, long before the
            // writeback is durable, and a stale skip bit from the fill
            // would then elide the next CBO unsoundly (§6.1).
            meta.skip = false;
            // The store already responded when the MSHR buffered it.
        }
        ++extra;
    }
}

// ---------------------------------------------------------------------
// Probe unit (§3.3, §5.4.1).
// ---------------------------------------------------------------------

void
DataCache::processProbe()
{
    switch (probe_.state) {
      case ProbeUnit::State::Idle:
        if (link_.b.ready()) {
            const BMsg msg = link_.b.recv();
            probe_.line = msg.addr;
            probe_.cap = msg.param;
            probe_.txn = msg.txn;
            if (sim_.probes().active()) {
                sim_.probes().begin(
                    sim_.now(), probe_.txn, "l1.probe", name() + ".probe",
                    detail::concat("probe 0x", std::hex, msg.addr));
            }
            // probe_rdy drops the moment the probe arrives (§5.4.1); the
            // flush queue cannot dequeue until the probe completes.
            probe_.state = ProbeUnit::State::InvalidateQueue;
            ++ctr_.probes;
        }
        return;

      case ProbeUnit::State::InvalidateQueue:
        // probe_invalidate (§5.4.1): bring pending flush-queue entries in
        // line with the permission downgrade this probe will perform.
        if (!cfg_.test_break_probe_invalidate)
            invalidateFlushEntries(probe_.line, probe_.cap == Cap::toN);
        probe_.state = ProbeUnit::State::CheckConflicts;
        return;

      case ProbeUnit::State::CheckConflicts: {
        // flush_rdy: an FSHR mid-flight on this line must finish its
        // release first (§5.4.1). wb_rdy: same for the writeback unit.
        const int fshr = fshrForLine(probe_.line);
        if (fshr >= 0 &&
            !fshrs_[static_cast<unsigned>(fshr)].flushRdyFor(probe_.line)) {
            return;
        }
        if (wbu_.conflictsWith(probe_.line))
            return;
        probe_.state = ProbeUnit::State::Respond;
        return;
      }

      case ProbeUnit::State::Respond: {
        const int way = arrays_.findWay(probe_.line);
        CMsg ack;
        ack.addr = probe_.line;
        ack.source = id_;
        ack.txn = probe_.txn;
        if (way < 0) {
            ack.op = COp::ProbeAck;
            ack.param = Shrink::NtoN;
            link_.c.send(ack);
        } else {
            const unsigned set = arrays_.setOf(probe_.line);
            L1Meta &meta = arrays_.meta(set, static_cast<unsigned>(way));
            const ClientState old = meta.state;
            const ClientState next = applyCap(old, probe_.cap);
            ack.param = shrinkFor(old, next);
            if (meta.dirty) {
                ack.op = COp::ProbeAckData;
                ack.data = arrays_.data(set, static_cast<unsigned>(way));
                meta.dirty = false;
                // Our modification is now travelling to L2; it is dirty
                // there, so this line is not persisted. An in-flight
                // CBO.CLEAN release for it carries the pre-probe data,
                // so its completion must not set the skip bit either.
                meta.skip = false;
                const int fshr = fshrForLine(probe_.line);
                if (fshr >= 0)
                    fshrs_[static_cast<unsigned>(fshr)].skip_ok = false;
            } else {
                ack.op = COp::ProbeAck;
            }
            meta.state = next;
            link_.c.send(ack, TLLink::beatsFor(ack));
        }
        if (sim_.probes().active()) {
            sim_.probes().end(sim_.now(), probe_.txn, "l1.probe",
                              name() + ".probe",
                              way < 0 ? "miss ack" : "ack");
        }
        probe_.state = ProbeUnit::State::Idle;
        return;
      }
    }
}

// ---------------------------------------------------------------------
// CPU request handling (§3.3, §5.3).
// ---------------------------------------------------------------------

void
DataCache::processCpuRequests()
{
    for (unsigned n = 0; n < cfg_.reqs_per_cycle && in_q_.ready(); ++n) {
        const CpuReq req = in_q_.pop();
        switch (req.kind) {
          case CpuOpKind::Load:
            handleLoad(req);
            break;
          case CpuOpKind::Store:
            handleStore(req);
            break;
          case CpuOpKind::CboClean:
          case CpuOpKind::CboFlush:
          case CpuOpKind::CboInval:
            handleCbo(req);
            break;
          case CpuOpKind::CboZero:
            handleCboZero(req);
            break;
        }
    }
}

void
DataCache::handleLoad(const CpuReq &req)
{
    const Addr line = lineAlign(req.addr);
    const int way = arrays_.findWay(line);
    if (way >= 0) {
        // A BtoT upgrade in flight may hold older buffered stores to
        // this line; serving the hit from the array would return
        // pre-store data. Order the load behind them through the RPQ
        // (the grow param is ignored on the piggy-back path).
        if (mshrForLine(line) >= 0) {
            if (!missToMshr(req, Grow::NtoB))
                respondNack(req);
            return;
        }
        // A load hit never changes line state, so pending flush-queue
        // metadata stays valid and the load may proceed (§5.3).
        const unsigned set = arrays_.setOf(line);
        arrays_.touch(set, static_cast<unsigned>(way));
        respond(req, readWord(std::as_const(arrays_).data(
                                  set, static_cast<unsigned>(way)),
                              req.addr, req.size),
                cfg_.hit_latency);
        ++ctr_.load_hits;
        return;
    }

    // Load miss with an FSHR on the line: forward from a filled data
    // buffer, otherwise postpone (§5.3).
    const int fshr = fshrForLine(line);
    if (fshr >= 0) {
        const Fshr &f = fshrs_[static_cast<unsigned>(fshr)];
        if (f.buffer_filled) {
            respond(req, readWord(f.buffer, req.addr, req.size),
                    cfg_.hit_latency);
            ++ctr_.fshr_forwards;
        } else {
            respondNack(req);
        }
        return;
    }

    ++ctr_.load_misses;
    if (!missToMshr(req, Grow::NtoB))
        respondNack(req);
}

void
DataCache::handleStore(const CpuReq &req)
{
    const Addr line = lineAlign(req.addr);

    // §5.3 Stores: a store dependent on a pending writeback nacks unless
    // an FSHR is executing a CBO.CLEAN and the data buffer already holds
    // the pre-store data (or the line was clean).
    const int fshr = fshrForLine(line);
    const bool queued = flushQueueHasLine(line);
    if (fshr >= 0 || queued) {
        bool allowed = false;
        if (fshr >= 0 && !queued) {
            const Fshr &f = fshrs_[static_cast<unsigned>(fshr)];
            allowed = f.req.isClean() &&
                      (!f.req.is_dirty || f.buffer_filled);
        }
        if (!allowed) {
            respondNack(req);
            return;
        }
    }

    const int way = arrays_.findWay(line);
    if (way >= 0) {
        const unsigned set = arrays_.setOf(line);
        L1Meta &meta = arrays_.meta(set, static_cast<unsigned>(way));
        if (meta.state == ClientState::Trunk) {
            writeWord(arrays_.data(set, static_cast<unsigned>(way)),
                      req.addr, req.size, req.data);
            meta.dirty = true;
            meta.skip = false; // dirtied: no longer persisted (§6.1)
            arrays_.touch(set, static_cast<unsigned>(way));
            respond(req, 0, cfg_.hit_latency);
            ++ctr_.store_hits;
            return;
        }
        // Branch: needs a permission upgrade. BOOM's data cache does not
        // support AcquirePerm (§3.3), so this re-acquires the whole block.
        if (fshr >= 0) {
            // Upgrading under a live CBO.CLEAN would let the FSHR write
            // back the new store's data; forbidden (§5.3).
            respondNack(req);
            return;
        }
        ++ctr_.store_upgrades;
        if (missToMshr(req, Grow::BtoT)) {
            // Once buffered in an MSHR the store counts as completed for
            // the ROB (§3.3); the data lands at replay time.
            respond(req, 0, 1);
        } else {
            respondNack(req);
        }
        return;
    }

    if (fshr >= 0) {
        respondNack(req);
        return;
    }
    ++ctr_.store_misses;
    if (missToMshr(req, Grow::NtoT)) {
        respond(req, 0, 1); // completed on buffering (§3.3)
    } else {
        respondNack(req);
    }
}

void
DataCache::handleCbo(const CpuReq &req)
{
    const Addr line = lineAlign(req.addr);

    // An active MSHR on this line may hold not-yet-replayed stores that
    // are older than this CBO in program order; snapshotting the line now
    // would let the writeback miss their data. Like any other request to
    // a line with a matching-but-unmergeable MSHR, the CBO nacks and the
    // LSU retries once the fill completes (§3.3).
    if (mshrForLine(line) >= 0) {
        respondNack(req);
        return;
    }

    // A probe in flight for this line may be about to downgrade the
    // metadata we are snapshotting, and its probe_invalidate scan has
    // already run — a snapshot taken now could go stale unnoticed. The
    // pipeline nacks requests conflicting with an in-progress probe.
    if (probe_.busy() && probe_.line == line) {
        respondNack(req);
        return;
    }

    const CboKind kind = req.kind == CpuOpKind::CboClean ? CboKind::Clean
                         : req.kind == CpuOpKind::CboFlush
                             ? CboKind::Flush
                             : CboKind::Inval;
    const int way = arrays_.findWay(line);
    const bool hit = way >= 0;
    bool dirty = false;
    bool skip = false;
    if (hit) {
        const L1Meta &meta = std::as_const(arrays_).meta(
            arrays_.setOf(line), static_cast<unsigned>(way));
        dirty = meta.dirty;
        skip = meta.skip;
    }

    // Skip It (§6.1): a hit on a clean line whose skip bit is set proves
    // no dirty copy exists anywhere below; drop before enqueuing. Never
    // applies to CBO.INVAL: its contract is to invalidate every cached
    // copy regardless of cleanliness (a device may have rewritten DRAM
    // behind the hierarchy's back).
    if (cfg_.skip_it && kind != CboKind::Inval && hit && !dirty && skip) {
        respond(req, 0, cfg_.cbo_accept_latency);
        ++ctr_.skipit_dropped;
        if (sim_.probes().active()) {
            sim_.probes().instant(
                sim_.now(), req.txn, "l1.skipit", name() + ".flushq",
                detail::concat("skip-drop 0x", std::hex, line),
                line,
                lineFingerprint(std::as_const(arrays_).data(
                    arrays_.setOf(line), static_cast<unsigned>(way))));
        }
        return;
    }

    // Coalescing (§5.3): a same-kind CBO.X to the same line whose state
    // is unchanged since the pending request was captured merges with it.
    // A pending request absorbs an incoming one when the kinds match,
    // or — with the cross-kind extension — when a pending flush subsumes
    // an incoming clean.
    const auto kind_merges = [&](CboKind pending) {
        if (pending == kind)
            return true;
        return cfg_.cross_kind_coalesce && kind == CboKind::Clean &&
               pending == CboKind::Flush;
    };

    const int fshr = fshrForLine(line);
    bool conflict = fshr >= 0;
    if (cfg_.coalesce) {
        for (const FlushQueueEntry &e : flush_q_) {
            if (e.addr != line)
                continue;
            if (kind_merges(e.kind) && e.is_hit == hit &&
                e.is_dirty == dirty) {
                respond(req, 0, cfg_.cbo_accept_latency);
                ++ctr_.cbo_coalesced;
                if (sim_.probes().active()) {
                    sim_.probes().instant(
                        sim_.now(), req.txn, "l1.coalesce",
                        name() + ".flushq",
                        detail::concat("merged into queued txn ", e.txn));
                }
                return;
            }
            conflict = true;
        }
        if (fshr >= 0) {
            const Fshr &f = fshrs_[static_cast<unsigned>(fshr)];
            // Once a CBO.CLEAN FSHR has captured its data buffer, stores
            // to the line are allowed again (§5.3) and may have re-dirtied
            // it; the array state then matches the FSHR's snapshot
            // (dirty == is_dirty) even though the buffered data is stale.
            // Merging here would ack this CBO without ever writing the
            // new store's data back — an acked-but-lost persist. Refuse
            // the merge and let the LSU retry after the FSHR drains.
            //
            // The other side of the capture: the line reads as clean now
            // (dirty == false) while the FSHR snapshot says dirty. The
            // buffered data still equals the array iff nothing touched
            // the line since the capture — no re-dirtying store (dirty
            // would be set) and no probe shipping newer data below
            // (skip_ok would be cleared). Under those conditions the
            // in-flight writeback persists exactly the bytes this CBO is
            // asking to persist, so it may merge instead of nack-retrying
            // until the FSHR drains.
            const bool state_matches =
                f.req.is_hit == hit && f.req.is_dirty == dirty &&
                !(f.buffer_filled && dirty);
            const bool captured_matches =
                f.req.is_hit && hit && !dirty && f.req.is_dirty &&
                f.buffer_filled && f.skip_ok;
            if (kind_merges(f.req.kind) &&
                (state_matches || captured_matches)) {
                respond(req, 0, cfg_.cbo_accept_latency);
                ++ctr_.cbo_coalesced;
                if (sim_.probes().active()) {
                    sim_.probes().instant(
                        sim_.now(), req.txn, "l1.coalesce",
                        name() + ".flushq",
                        detail::concat("merged into FSHR txn ", f.req.txn));
                }
                return;
            }
        }
    } else {
        conflict = conflict || flushQueueHasLine(line);
    }

    // A dependent CBO.X that cannot coalesce is an STQ request that must
    // nack (§5.3).
    if (conflict) {
        respondNack(req);
        return;
    }

    if (flush_q_.full()) {
        respondNack(req);
        ++ctr_.flushq_full;
        return;
    }

    FlushQueueEntry e;
    e.addr = line;
    e.is_hit = hit;
    e.is_dirty = dirty;
    e.kind = kind;
    e.txn = req.txn;
    const bool pushed = flush_q_.tryPush(e);
    SKIPIT_ASSERT(pushed, "flush queue push failed");
    ++flush_counter_;
    if (sim_.probes().active()) {
        sim_.probes().begin(
            sim_.now(), req.txn, "l1.flushq", name() + ".flushq",
            detail::concat("cbo.", cboName(kind), " 0x", std::hex,
                           line, hit ? " hit" : " miss",
                           dirty ? " dirty" : ""));
    }
    // Buffered: the instruction is ready to commit (§5.2).
    respond(req, 0, cfg_.cbo_accept_latency);
    ++(kind == CboKind::Clean   ? ctr_.cbo_clean_accepted
       : kind == CboKind::Flush ? ctr_.cbo_flush_accepted
                                : ctr_.cbo_inval_accepted);
}

void
DataCache::handleCboZero(const CpuReq &req)
{
    // CBO.ZERO behaves like a full-line store: exclusive permissions are
    // required (BOOM lacks AcquirePerm, §3.3, so a miss re-acquires the
    // whole block even though its data is about to be overwritten).
    const Addr line = lineAlign(req.addr);

    const int fshr = fshrForLine(line);
    if (fshr >= 0 || flushQueueHasLine(line)) {
        respondNack(req); // same dependence rule as stores (§5.3)
        return;
    }

    const int way = arrays_.findWay(line);
    if (way >= 0) {
        const unsigned set = arrays_.setOf(line);
        L1Meta &meta = arrays_.meta(set, static_cast<unsigned>(way));
        if (meta.state == ClientState::Trunk) {
            arrays_.data(set, static_cast<unsigned>(way)) = LineData{};
            meta.dirty = true;
            meta.skip = false; // dirtied: no longer persisted (§6.1)
            arrays_.touch(set, static_cast<unsigned>(way));
            respond(req, 0, cfg_.hit_latency);
            ++ctr_.cbo_zero;
            return;
        }
        if (missToMshr(req, Grow::BtoT)) {
            respond(req, 0, 1);
            ++ctr_.cbo_zero;
        } else {
            respondNack(req);
        }
        return;
    }
    if (missToMshr(req, Grow::NtoT)) {
        respond(req, 0, 1);
        ++ctr_.cbo_zero;
    } else {
        respondNack(req);
    }
}

// ---------------------------------------------------------------------
// MSHR path (§3.3).
// ---------------------------------------------------------------------

int
DataCache::mshrForLine(Addr line) const
{
    for (unsigned i = 0; i < mshrs_.size(); ++i) {
        if (mshrs_[i].valid && mshrs_[i].line == line)
            return static_cast<int>(i);
    }
    return -1;
}

int
DataCache::fshrForLine(Addr line) const
{
    for (unsigned i = 0; i < fshrs_.size(); ++i) {
        if (fshrs_[i].busy() && fshrs_[i].req.addr == line)
            return static_cast<int>(i);
    }
    return -1;
}

bool
DataCache::flushQueueHasLine(Addr line) const
{
    for (const FlushQueueEntry &e : flush_q_) {
        if (e.addr == line)
            return true;
    }
    return false;
}

bool
DataCache::wayReservedByMshr(unsigned set, unsigned way) const
{
    for (const L1Mshr &m : mshrs_) {
        if (m.valid && m.fill_set == set && m.fill_way == way)
            return true;
    }
    return false;
}

int
DataCache::pickVictim(unsigned set) const
{
    int best = -1;
    std::uint64_t best_stamp = ~std::uint64_t{0};
    for (unsigned w = 0; w < arrays_.ways(); ++w) {
        const L1Meta &m = arrays_.meta(set, w);
        if (wayReservedByMshr(set, w))
            continue;
        if (!m.valid())
            return static_cast<int>(w);
        const Addr line = arrays_.addrOf(set, w);
        // flush_rdy blocks the MSHRs from victimising a line an FSHR is
        // working on (§5.4.2).
        const int fshr = fshrForLine(line);
        if (fshr >= 0 &&
            !fshrs_[static_cast<unsigned>(fshr)].flushRdyFor(line)) {
            continue;
        }
        if (arrays_.stampOf(set, w) < best_stamp) {
            best_stamp = arrays_.stampOf(set, w);
            best = static_cast<int>(w);
        }
    }
    return best;
}

bool
DataCache::missToMshr(const CpuReq &req, Grow grow)
{
    const Addr line = lineAlign(req.addr);

    // Piggy-back on an existing MSHR for this line if permitted (§3.3).
    const int existing = mshrForLine(line);
    if (existing >= 0) {
        L1Mshr &m = mshrs_[static_cast<unsigned>(existing)];
        if (!m.accepts(req.kind) || m.rpq.size() >= cfg_.rpq_depth)
            return false;
        m.rpq.push_back(req);
        ++ctr_.mshr_secondary;
        if (sim_.probes().active()) {
            sim_.probes().instant(
                sim_.now(), req.txn, "l1.mshr.secondary",
                name() + ".mshr" + std::to_string(existing),
                detail::concat("piggy-backed on txn ", m.txn));
        }
        return true;
    }

    int free = -1;
    for (unsigned i = 0; i < mshrs_.size(); ++i) {
        if (!mshrs_[i].valid) {
            free = static_cast<int>(i);
            break;
        }
    }
    if (free < 0) {
        ++ctr_.mshr_full;
        return false;
    }

    const unsigned set = arrays_.setOf(line);
    int fill_way = arrays_.findWay(line); // resident: a BtoT upgrade
    if (fill_way < 0) {
        // Need a way: evict a victim through the writeback unit.
        const int victim = pickVictim(set);
        if (victim < 0)
            return false;
        L1Meta &vm = arrays_.meta(set, static_cast<unsigned>(victim));
        if (vm.valid()) {
            if (wbu_.busy())
                return false; // single WBU; retry later
            const Addr victim_line = arrays_.addrOf(
                set, static_cast<unsigned>(victim));
            wbu_.line = victim_line;
            wbu_.dirty = vm.dirty;
            wbu_.data = arrays_.data(set, static_cast<unsigned>(victim));
            wbu_.param = shrinkFor(vm.state, ClientState::Nothing);
            wbu_.state = WritebackUnit::State::SendRelease;
            wbu_.txn = req.txn; // the miss that displaced the victim
            vm = L1Meta{};
            if (sim_.probes().active()) {
                sim_.probes().instant(
                    sim_.now(), req.txn, "l1.evict", name() + ".wbu",
                    detail::concat("evict 0x", std::hex, victim_line));
            }
            // §5.4.2: evictions invalidate matching flush-queue entries.
            invalidateFlushEntries(victim_line, true);
            ++ctr_.evictions;
        }
        fill_way = victim;
    }

    L1Mshr &m = mshrs_[static_cast<unsigned>(free)];
    m.valid = true;
    m.state = L1Mshr::State::AwaitIssue;
    m.line = line;
    m.param = grow;
    m.rpq.clear();
    m.rpq.push_back(req);
    m.fill_set = set;
    m.fill_way = static_cast<unsigned>(fill_way);
    m.txn = req.txn;
    ++ctr_.mshr_primary;
    if (sim_.probes().active()) {
        sim_.probes().begin(
            sim_.now(), m.txn, "l1.mshr",
            name() + ".mshr" + std::to_string(free),
            detail::concat("miss 0x", std::hex, line));
    }
    return true;
}

void
DataCache::issueAcquires()
{
    for (L1Mshr &m : mshrs_) {
        if (m.valid && m.state == L1Mshr::State::AwaitIssue) {
            AMsg msg;
            msg.addr = m.line;
            msg.param = m.param;
            msg.source = id_;
            msg.txn = m.txn;
            link_.a.send(msg);
            m.state = L1Mshr::State::AwaitGrant;
        }
    }
}

void
DataCache::tickWbu()
{
    if (wbu_.state != WritebackUnit::State::SendRelease)
        return;
    CMsg msg;
    msg.addr = wbu_.line;
    msg.param = wbu_.param;
    msg.source = id_;
    msg.txn = wbu_.txn;
    if (wbu_.dirty) {
        msg.op = COp::ReleaseData;
        msg.data = wbu_.data;
    } else {
        msg.op = COp::Release;
    }
    if (sim_.probes().active()) {
        sim_.probes().begin(
            sim_.now(), wbu_.txn, "l1.wbu", name() + ".wbu",
            detail::concat(wbu_.dirty ? "ReleaseData 0x"
                                      : "Release 0x",
                           std::hex, wbu_.line));
    }
    link_.c.send(msg, TLLink::beatsFor(msg));
    wbu_.state = WritebackUnit::State::AwaitAck;
    ++ctr_.writebacks;
}

// ---------------------------------------------------------------------
// Flush unit (§5.2).
// ---------------------------------------------------------------------

void
DataCache::invalidateFlushEntries(Addr line, bool fully_invalidated)
{
    for (FlushQueueEntry &e : flush_q_) {
        if (e.addr != line)
            continue;
        if (fully_invalidated)
            e.is_hit = false;
        // Either way the line can no longer be dirty here: a probe with
        // data or an eviction carried the dirty bytes away.
        e.is_dirty = false;
    }
}

void
DataCache::flushUnitDequeue()
{
    if (flush_q_.empty())
        return;
    // §5.4.1/2: dequeue only when no probe is in flight (probe_rdy) and
    // the writeback unit is not working on this line (wb_rdy).
    if (!probe_.probeRdy())
        return;
    const FlushQueueEntry &head = flush_q_.front();
    if (wbu_.conflictsWith(head.addr))
        return;
    if (fshrForLine(head.addr) >= 0)
        return; // one FSHR per line at a time

    // Round-robin FSHR allocation (§5.2).
    int chosen = -1;
    for (unsigned i = 0; i < fshrs_.size(); ++i) {
        const unsigned idx = (fshr_rr_ + i) % fshrs_.size();
        if (!fshrs_[idx].busy()) {
            chosen = static_cast<int>(idx);
            break;
        }
    }
    if (chosen < 0)
        return;
    fshr_rr_ = (static_cast<unsigned>(chosen) + 1) % fshrs_.size();

    Fshr &f = fshrs_[static_cast<unsigned>(chosen)];
    f = Fshr{};
    f.req = flush_q_.pop();
    if (sim_.probes().active()) {
        sim_.probes().end(sim_.now(), f.req.txn, "l1.flushq",
                          name() + ".flushq", "dequeued");
        sim_.probes().begin(
            sim_.now(), f.req.txn, "l1.fshr",
            name() + ".fshr" + std::to_string(chosen),
            detail::concat("cbo.", cboName(f.req.kind), " 0x",
                           std::hex, f.req.addr));
    }

    // Build the execution plan (Figure 7). The interlocks guarantee the
    // snapshot still matches the array: assert it.
    if (f.req.is_hit) {
        const int way = arrays_.findWay(f.req.addr);
        SKIPIT_ASSERT(way >= 0, "flush-queue hit entry vanished");
        f.set = arrays_.setOf(f.req.addr);
        f.way = way;
        const L1Meta &meta = std::as_const(arrays_).meta(
            f.set, static_cast<unsigned>(way));
        SKIPIT_ASSERT(meta.dirty == f.req.is_dirty,
                      "flush-queue dirty snapshot stale");
        const ClientState old = meta.state;
        if (f.req.isClean()) {
            f.report = shrinkFor(old, old); // TtoT / BtoB
        } else {
            f.report = shrinkFor(old, ClientState::Nothing);
        }
        if (f.req.kind == CboKind::Inval || !f.req.is_dirty) {
            // Inval discards dirty data (no buffer fill); a clean hit on
            // a clean line does not even touch the metadata.
            f.state = (f.req.isClean())
                          ? Fshr::State::RootRelease
                          : Fshr::State::MetaWrite;
        } else {
            f.state = Fshr::State::MetaWrite;
        }
    } else {
        f.report = Shrink::NtoN;
        f.state = Fshr::State::RootRelease;
    }
    f.wait_until = sim_.now() + 1;
    ++ctr_.fshr_allocs;
}

void
DataCache::tickFshrs()
{
    for (Fshr &f : fshrs_) {
        if (!f.busy() || sim_.now() < f.wait_until)
            continue;
        switch (f.state) {
          case Fshr::State::Invalid:
            SKIPIT_PANIC("busy FSHR in Invalid state");

          case Fshr::State::MetaWrite: {
            L1Meta &meta = arrays_.meta(f.set,
                                        static_cast<unsigned>(f.way));
            if (f.req.isClean()) {
                meta.dirty = false;
            } else {
                meta = L1Meta{}; // flush/inval invalidate (§5.2)
            }
            const bool carries_data =
                f.req.is_dirty && f.req.kind != CboKind::Inval;
            f.state = carries_data ? Fshr::State::FillBuffer
                                   : Fshr::State::RootRelease;
            f.wait_until = sim_.now() + 1;
            if (sim_.probes().active())
                emitFshrState(f);
            break;
          }

          case Fshr::State::FillBuffer: {
            f.buffer = std::as_const(arrays_).data(
                f.set, static_cast<unsigned>(f.way));
            f.buffer_filled = true;
            f.state = Fshr::State::RootReleaseData;
            // The widened data array serves a full line in one cycle
            // (§5.2); the unmodified array needs one word per cycle.
            f.wait_until = sim_.now() +
                (cfg_.wide_data_array ? 1 : line_bytes / 8);
            if (sim_.probes().active())
                emitFshrState(f);
            break;
          }

          case Fshr::State::RootReleaseData:
          case Fshr::State::RootRelease: {
            CMsg msg;
            msg.addr = f.req.addr;
            msg.param = f.report;
            msg.cbo = f.req.kind;
            msg.source = id_;
            msg.txn = f.req.txn;
            if (f.state == Fshr::State::RootReleaseData) {
                msg.op = COp::RootReleaseData;
                msg.data = f.buffer;
            } else {
                msg.op = COp::RootRelease;
            }
            link_.c.send(msg, TLLink::beatsFor(msg));
            f.state = Fshr::State::RootReleaseAck;
            if (sim_.probes().active()) {
                emitFshrState(f);
                if (msg.op == COp::RootReleaseData) {
                    // Durability-oracle payload: the exact data this
                    // writeback promises to make durable.
                    sim_.probes().instant(
                        sim_.now(), f.req.txn, "persist.wb.data",
                        name() + ".fshr" +
                            std::to_string(&f - fshrs_.data()),
                        detail::concat("writeback data 0x",
                                       std::hex, f.req.addr),
                        f.req.addr, lineFingerprint(f.buffer));
                }
            }
            break;
          }

          case Fshr::State::RootReleaseAck:
            break; // completion handled in processChannelD()
        }
    }
}

void
DataCache::completeFshr(Fshr &f)
{
    bool skip_set = false;
    if (f.req.isClean() && cfg_.skip_it && cfg_.skip_set_on_clean_ack) {
        // The clean just wrote every dirty copy back to memory. If the
        // line is still resident and has not been re-dirtied, it is now
        // provably persisted: set the skip bit.
        const int way = arrays_.findWay(f.req.addr);
        if (way >= 0 && f.skip_ok) {
            L1Meta &meta = arrays_.meta(arrays_.setOf(f.req.addr),
                                        static_cast<unsigned>(way));
            if (!meta.dirty) {
                meta.skip = true;
                skip_set = true;
                if (sim_.probes().active()) {
                    sim_.probes().instant(
                        sim_.now(), f.req.txn, "persist.skipset",
                        name() + ".fshr" +
                            std::to_string(&f - fshrs_.data()),
                        detail::concat("skip-set 0x", std::hex, f.req.addr),
                        f.req.addr,
                        lineFingerprint(
                            std::as_const(arrays_).data(
                                arrays_.setOf(f.req.addr),
                                static_cast<unsigned>(way))));
                }
            }
        }
    }
    if (sim_.probes().active()) {
        const std::string track =
            name() + ".fshr" + std::to_string(&f - fshrs_.data());
        sim_.probes().end(sim_.now(), f.req.txn, "l1.fshr", track,
                          "RootReleaseAck");
        // Durability-oracle payload: kind in bits [1:0], carried-data
        // flag in bit 2, skip-set flag in bit 3.
        sim_.probes().instant(
            sim_.now(), f.req.txn, "persist.complete", track,
            detail::concat("cbo complete 0x", std::hex, f.req.addr),
            f.req.addr,
            static_cast<std::uint64_t>(f.req.kind) |
                (f.req.is_dirty ? 4u : 0u) | (skip_set ? 8u : 0u));
    }
    f = Fshr{};
    SKIPIT_ASSERT(flush_counter_ > 0, "flush counter underflow");
    --flush_counter_;
    ++ctr_.fshr_completions;
}

void
DataCache::emitFshrState(const Fshr &f) const
{
    sim_.probes().instant(
        sim_.now(), f.req.txn, "l1.fshr.state",
        name() + ".fshr" + std::to_string(&f - fshrs_.data()),
        fshrStateName(f.state));
}

// ---------------------------------------------------------------------
// Watchdog interface.
// ---------------------------------------------------------------------

void
DataCache::snapshotResources(
    std::vector<probe::ResourceSnapshot> &out) const
{
    for (unsigned i = 0; i < fshrs_.size(); ++i) {
        const Fshr &f = fshrs_[i];
        if (!f.busy())
            continue;
        probe::ResourceSnapshot snap;
        snap.name = name() + ".fshr" + std::to_string(i);
        snap.fingerprint = probe::fingerprint(
            0, static_cast<std::uint64_t>(f.state), f.req.addr, f.req.txn,
            f.buffer_filled);
        snap.txn = f.req.txn;
        snap.describe = std::string("state=") + fshrStateName(f.state);
        out.push_back(std::move(snap));
    }
    for (unsigned i = 0; i < mshrs_.size(); ++i) {
        const L1Mshr &m = mshrs_[i];
        if (!m.valid)
            continue;
        probe::ResourceSnapshot snap;
        snap.name = name() + ".mshr" + std::to_string(i);
        snap.fingerprint = probe::fingerprint(
            0, static_cast<std::uint64_t>(m.state), m.line, m.txn,
            m.rpq.size());
        snap.txn = m.txn;
        snap.describe = m.state == L1Mshr::State::AwaitGrant
                            ? "awaiting grant"
                            : "awaiting issue";
        out.push_back(std::move(snap));
    }
    if (wbu_.busy()) {
        probe::ResourceSnapshot snap;
        snap.name = name() + ".wbu";
        snap.fingerprint = probe::fingerprint(
            0, static_cast<std::uint64_t>(wbu_.state), wbu_.line,
            wbu_.txn);
        snap.txn = wbu_.txn;
        snap.describe = wbu_.state == WritebackUnit::State::AwaitAck
                            ? "awaiting ReleaseAck"
                            : "sending Release";
        out.push_back(std::move(snap));
    }
    if (probe_.busy()) {
        probe::ResourceSnapshot snap;
        snap.name = name() + ".probe";
        snap.fingerprint = probe::fingerprint(
            0, static_cast<std::uint64_t>(probe_.state), probe_.line,
            probe_.txn);
        snap.txn = probe_.txn;
        snap.describe = "probe unit busy";
        out.push_back(std::move(snap));
    }
    // The queue entries themselves never change state while queued; their
    // position does, so a draining queue shows progress and a blocked one
    // does not.
    std::size_t pos = 0;
    for (const FlushQueueEntry &e : flush_q_) {
        probe::ResourceSnapshot snap;
        snap.name = name() + ".flushq.txn" + std::to_string(e.txn);
        snap.fingerprint = probe::fingerprint(0, e.addr, e.txn, pos);
        snap.txn = e.txn;
        snap.describe = "queued at position " + std::to_string(pos);
        out.push_back(std::move(snap));
        ++pos;
    }
}

void
DataCache::injectSkipCorruption(Addr addr)
{
    SKIPIT_ASSERT(cfg_.skip_it,
                  "injectSkipCorruption requires skip_it enabled");
    const Addr line = lineAlign(addr);
    const int way = arrays_.findWay(line);
    SKIPIT_ASSERT(way >= 0,
                  "injectSkipCorruption: line not resident: 0x", std::hex,
                  line);
    L1Meta &meta =
        arrays_.meta(arrays_.setOf(line), static_cast<unsigned>(way));
    SKIPIT_ASSERT(!meta.dirty,
                  "injectSkipCorruption: line is dirty (skip bits are "
                  "only consulted on clean lines)");
    meta.skip = true;
}

void
DataCache::injectTrunk(Addr addr)
{
    const Addr line = lineAlign(addr);
    const int way = arrays_.findWay(line);
    SKIPIT_ASSERT(way >= 0, "injectTrunk: line not resident: 0x", std::hex,
                  line);
    arrays_.meta(arrays_.setOf(line), static_cast<unsigned>(way)).state =
        ClientState::Trunk;
}

void
DataCache::injectDataCorruption(Addr addr)
{
    const Addr line = lineAlign(addr);
    const int way = arrays_.findWay(line);
    SKIPIT_ASSERT(way >= 0, "injectDataCorruption: line not resident: 0x",
                  std::hex, line);
    arrays_.data(arrays_.setOf(line),
                 static_cast<unsigned>(way))[lineOffset(addr)] ^= 0xff;
}

} // namespace skipit
