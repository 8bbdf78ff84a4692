#include "lsu.hh"

#include <algorithm>
#include <bit>

#include "sim/bits.hh"

namespace skipit {

namespace {

/** The lowest set bit of @p mask, or 0 when it has none. */
constexpr std::uint64_t
lowest(std::uint64_t mask)
{
    return mask & (~mask + 1);
}

const char *
memOpName(MemOpKind k)
{
    switch (k) {
      case MemOpKind::Load:
        return "load";
      case MemOpKind::Store:
        return "store";
      case MemOpKind::CboClean:
        return "cbo.clean";
      case MemOpKind::CboFlush:
        return "cbo.flush";
      case MemOpKind::CboInval:
        return "cbo.inval";
      case MemOpKind::CboZero:
        return "cbo.zero";
      case MemOpKind::Fence:
        return "fence";
      case MemOpKind::Delay:
        return "delay";
      case MemOpKind::Marker:
        return "marker";
      case MemOpKind::WaitUntil:
        return "waituntil";
    }
    return "?";
}

} // namespace

Lsu::Lsu(std::string name, Simulator &sim, const LsuConfig &cfg,
         DataCache &dcache, Stats &stats, AgentId source)
    : Ticked(std::move(name)), sim_(sim), cfg_(cfg), dcache_(dcache),
      source_(source), ring_(cfg.window)
{
    SKIPIT_ASSERT(cfg.window >= 1 && cfg.window <= 64,
                  "LSU window must hold 1..64 entries: each entry is one "
                  "bit of a 64-bit bitset");
    stats.add(Ticked::name() + ".",
              {{"retries", &ctr_.retries},
               {"fences", &ctr_.fences},
               {"stl_forwards", &ctr_.stl_forwards}});
}

unsigned
Lsu::slot(unsigned pos) const
{
    const unsigned i = head_ + pos;
    return i < cfg_.window ? i : i - cfg_.window;
}

std::uint64_t
Lsu::dispatch(const MemOp &op)
{
    SKIPIT_ASSERT(canDispatch(), "dispatch into a full LSU window");
    SKIPIT_ASSERT(op.kind != MemOpKind::Delay &&
                      op.kind != MemOpKind::WaitUntil,
                  "Delay/WaitUntil ops are handled by the Hart, not the "
                  "LSU");
    const unsigned pos = count_++;
    Entry &e = ring_[slot(pos)];
    e = Entry{op, retired_upto_ + 1 + pos}; // tickets are dense
    // Transaction ids are allocated unconditionally so attaching a sink
    // never perturbs ids (and thus never perturbs anything downstream).
    // Each LSU allocates from its own id lane, so the ids it hands out
    // depend only on its own dispatch history — never on how dispatches
    // interleave across cores.
    e.txn = sim_.probes().newTxn(
        source_ == invalid_agent ? 0u
                                 : static_cast<unsigned>(source_) + 1);
    if (sim_.probes().active()) {
        sim_.probes().begin(
            sim_.now(), e.txn, "lsu.window", name(),
            detail::concat(memOpName(op.kind), " 0x", std::hex, op.addr));
    }
    const std::uint64_t b = bit(pos);
    waiting_ |= b;
    not_done_ |= b;
    if (op.kind == MemOpKind::Load)
        load_ |= b;
    else if (op.kind == MemOpKind::Fence)
        fence_ |= b;
    else if (op.kind == MemOpKind::Store)
        store_ |= b;
    wakeAt(sim_.now());
    return e.ticket;
}

std::uint64_t
Lsu::loadValue(std::uint64_t ticket) const
{
    const std::uint64_t i = ticket - results_base_;
    SKIPIT_ASSERT(ticket >= results_base_ && i < load_results_.size() &&
                      load_results_[i].done,
                  "loadValue for unknown or incomplete load");
    return load_results_[i].value;
}

void
Lsu::recordLoad(std::uint64_t ticket, std::uint64_t value)
{
    const std::uint64_t i = ticket - results_base_;
    if (i >= load_results_.size())
        load_results_.resize(i + 1);
    load_results_[i] = {value, true};
}

CpuReq
Lsu::toCpuReq(const Entry &e) const
{
    CpuReq req;
    req.addr = e.op.addr;
    req.size = e.op.size;
    req.data = e.op.data;
    req.id = e.ticket;
    req.txn = e.txn;
    req.source = source_;
    switch (e.op.kind) {
      case MemOpKind::Load:
        req.kind = CpuOpKind::Load;
        break;
      case MemOpKind::Store:
        req.kind = CpuOpKind::Store;
        break;
      case MemOpKind::CboClean:
        req.kind = CpuOpKind::CboClean;
        break;
      case MemOpKind::CboFlush:
        req.kind = CpuOpKind::CboFlush;
        break;
      case MemOpKind::CboInval:
        req.kind = CpuOpKind::CboInval;
        break;
      case MemOpKind::CboZero:
        req.kind = CpuOpKind::CboZero;
        break;
      default:
        SKIPIT_PANIC("op kind cannot fire into the cache");
    }
    return req;
}

void
Lsu::drainResponses()
{
    while (dcache_.respReady()) {
        const CpuResp resp = dcache_.popResp();
        // Tickets are dense: the ticket names its window position.
        const std::uint64_t pos = resp.id - retired_upto_ - 1;
        SKIPIT_ASSERT(pos < count_, "response for retired ticket");
        const std::uint64_t b = bit(static_cast<unsigned>(pos));
        SKIPIT_ASSERT((not_done_ & ~waiting_ & b) != 0,
                      "response for unfired entry");
        Entry &e = ring_[slot(static_cast<unsigned>(pos))];
        if (resp.nack) {
            waiting_ |= b;
            e.retry_at = sim_.now() + cfg_.retry_backoff;
            ++ctr_.retries;
            if (sim_.probes().active()) {
                sim_.probes().instant(sim_.now(), e.txn, "lsu.nack",
                                      name(), "nacked; backing off");
            }
        } else {
            not_done_ &= ~b;
            if (e.op.kind == MemOpKind::Load)
                recordLoad(e.ticket, resp.data);
            if (sim_.probes().active()) {
                sim_.probes().end(
                    sim_.now(), e.txn, "lsu.window", name(),
                    detail::concat(memOpName(e.op.kind), " 0x",
                                   std::hex, e.op.addr));
            }
        }
    }
}

std::uint64_t
Lsu::candidates() const
{
    // Only the oldest incomplete entry (the ROB head) and the loads older
    // than the oldest incomplete fence can act. Every other waiting entry
    // is an STQ op or fence with something incomplete before it, or sits
    // behind a pending fence: decide() says Wait, and since such an entry
    // has never fired it has no backoff for nextWake() to report either.
    const std::uint64_t fences = not_done_ & fence_;
    return waiting_ & (lowest(not_done_) | (load_ & (lowest(fences) - 1)));
}

Lsu::Decision
Lsu::decide(unsigned pos) const
{
    const MemOp &op = ring_[slot(pos)].op;
    const std::uint64_t older = bit(pos) - 1;
    if (op.kind == MemOpKind::Fence) {
        // FENCE RW,RW: commits once everything older is complete and no
        // flush request is pending in the flush unit (§5.3).
        const bool release =
            (not_done_ & older) == 0 && !dcache_.flushing();
        return {release ? Action::Release : Action::Wait};
    }
    if (op.kind != MemOpKind::Load) {
        // STQ request (store or CBO.X): fires only once everything older
        // has completed, i.e. when the ROB head points at it (§3.2, §5.1).
        return {(not_done_ & older) == 0 ? Action::Fire : Action::Wait};
    }
    if ((not_done_ & fence_ & older) != 0)
        return {Action::Wait};
    // Store-to-load forwarding from the STQ (§3.2): the nearest older
    // store to the load's line forwards if it writes exactly its word.
    for (std::uint64_t stores = store_ & older; stores != 0;) {
        const unsigned j = 63 - std::countl_zero(stores); // nearest first
        stores ^= bit(j);
        const MemOp &st = ring_[slot(j)].op;
        if (!sameLine(st.addr, op.addr))
            continue;
        if (st.addr == op.addr && st.size == op.size)
            return {Action::Forward, j};
        break; // overlapping but not word-exact: cannot forward
    }
    // An older overlapping (non-forwardable) store or CBO must drain
    // before the load may fire.
    for (std::uint64_t blockers = not_done_ & ~load_ & older; blockers != 0;
         blockers &= blockers - 1) {
        const unsigned j = static_cast<unsigned>(std::countr_zero(blockers));
        if (sameLine(ring_[slot(j)].op.addr, op.addr))
            return {Action::Wait};
    }
    return {Action::Fire};
}

void
Lsu::fire()
{
    unsigned fired = 0;
    std::uint64_t todo = candidates();
    while (todo != 0 && fired < cfg_.fires_per_cycle) {
        const unsigned pos = static_cast<unsigned>(std::countr_zero(todo));
        const std::uint64_t b = bit(pos);
        Entry &e = ring_[slot(pos)];
        const Decision d = sim_.now() < e.retry_at ? Decision{} : decide(pos);
        switch (d.action) {
          case Action::Wait:
            break;
          case Action::Release:
            waiting_ &= ~b;
            not_done_ &= ~b;
            ++ctr_.fences;
            if (sim_.probes().active()) {
                sim_.probes().end(sim_.now(), e.txn, "lsu.window", name(),
                                  "fence released");
                // Durability-oracle payload: this hart has observed
                // every older CBO complete (flush counter drained);
                // their flushed values are now claimed durable.
                sim_.probes().instant(
                    sim_.now(), e.txn, "persist.fence", name(),
                    "fence retired; flush counter drained", 0,
                    static_cast<std::uint64_t>(source_));
            }
            break;
          case Action::Forward:
            waiting_ &= ~b;
            not_done_ &= ~b;
            recordLoad(e.ticket, ring_[slot(d.from)].op.data);
            ++ctr_.stl_forwards;
            if (sim_.probes().active()) {
                sim_.probes().end(sim_.now(), e.txn, "lsu.window", name(),
                                  "store-to-load forward");
            }
            break;
          case Action::Fire:
            dcache_.submit(toCpuReq(e));
            waiting_ &= ~b;
            ++fired;
            if (sim_.probes().active()) {
                sim_.probes().instant(
                    sim_.now(), e.txn, "lsu.fire", name(),
                    detail::concat(memOpName(e.op.kind), " fired"));
            }
            break;
        }
        // A released fence or a completed head may let younger entries
        // act in this same pass; older ones are not revisited.
        todo = candidates() & ~(b | (b - 1));
    }
}

Cycle
Lsu::nextWake() const
{
    if (count_ == 0)
        return wake_never;
    if ((not_done_ & 1) == 0)
        return sim_.now(); // retire() has work
    // A pending cache response wakes drainResponses.
    Cycle wake = dcache_.respWakeAt();
    for (std::uint64_t todo = candidates(); todo != 0; todo &= todo - 1) {
        const unsigned pos = static_cast<unsigned>(std::countr_zero(todo));
        const Cycle retry_at = ring_[slot(pos)].retry_at;
        if (sim_.now() < retry_at) {
            wake = std::min(wake, retry_at);
            continue;
        }
        if (decide(pos).action != Action::Wait)
            return sim_.now();
        // Blocked on another entry or on the flush unit: whatever
        // unblocks it is itself a tracked wake source (a response, an
        // LSU fire this cycle, or data-cache activity).
    }
    return wake;
}

void
Lsu::retire()
{
    // The done entries at the head leave together. A full window of 64
    // cannot leave by a plain shift: shifting by the width is undefined.
    const unsigned n =
        std::min(static_cast<unsigned>(std::countr_zero(not_done_)), count_);
    if (n == 0)
        return;
    for (std::uint64_t *mask : {&waiting_, &not_done_, &load_, &fence_,
                                &store_}) {
        *mask = n < 64 ? *mask >> n : 0;
    }
    head_ = (head_ + n) % cfg_.window;
    count_ -= n;
    retired_upto_ += n;
    // The hart ticks later in this cycle and may dispatch into the room.
    if (dispatcher_ != nullptr)
        dispatcher_->wakeAt(sim_.now());
}

void
Lsu::tick()
{
    drainResponses();
    fire();
    retire();
}

} // namespace skipit
