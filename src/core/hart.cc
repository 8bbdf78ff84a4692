#include "hart.hh"

#include <algorithm>

namespace skipit {

namespace {

/** marker_cycles_ entry of a marker that has not executed. */
constexpr Cycle unlatched = Ticked::wake_never;

} // namespace

Hart::Hart(std::string name, Simulator &sim, Lsu &lsu,
           unsigned dispatch_width)
    : Ticked(std::move(name)), sim_(sim), lsu_(lsu),
      dispatch_width_(dispatch_width)
{
}

void
Hart::setProgram(Program program)
{
    SKIPIT_ASSERT(lsu_.empty(), "setProgram with in-flight operations");
    program_ = std::move(program);
    pc_ = 0;
    stall_until_ = 0;
    load_tickets_.clear();
    marker_ids_.clear();
    for (const MemOp &op : program_) {
        if (op.kind == MemOpKind::Marker)
            marker_ids_.push_back(op.data);
    }
    std::sort(marker_ids_.begin(), marker_ids_.end());
    marker_ids_.erase(std::unique(marker_ids_.begin(), marker_ids_.end()),
                      marker_ids_.end());
    marker_cycles_.assign(marker_ids_.size(), unlatched);
    marker_waiting_ = false;
    lsu_.clearResults();
}

bool
Hart::done() const
{
    return pc_ >= program_.size() && lsu_.empty() && !marker_waiting_;
}

std::size_t
Hart::markerSlot(std::uint64_t id) const
{
    const auto it =
        std::lower_bound(marker_ids_.begin(), marker_ids_.end(), id);
    return it != marker_ids_.end() && *it == id
               ? static_cast<std::size_t>(it - marker_ids_.begin())
               : marker_ids_.size();
}

Cycle
Hart::markerCycle(std::uint64_t id) const
{
    const std::size_t slot = markerSlot(id);
    SKIPIT_ASSERT(slot < marker_ids_.size() &&
                      marker_cycles_[slot] != unlatched,
                  "marker ", id, " never executed");
    return marker_cycles_[slot];
}

std::uint64_t
Hart::loadValue(std::size_t op_idx) const
{
    SKIPIT_ASSERT(op_idx < load_tickets_.size() &&
                      load_tickets_[op_idx] != 0,
                  "op ", op_idx, " is not a dispatched load");
    return lsu_.loadValue(load_tickets_[op_idx]);
}

Cycle
Hart::nextWake() const
{
    // Mirrors tick()'s early-outs: dispatch resumes once the stall
    // expires, and anything gated on the LSU (a waiting marker, a full
    // dispatch window) is woken by the LSU's own activity.
    const Cycle base = std::max(sim_.now(), stall_until_);
    if (marker_waiting_)
        return lsu_.empty() ? base : wake_never;
    if (pc_ >= program_.size())
        return wake_never;
    const MemOpKind k = program_[pc_].kind;
    if (k == MemOpKind::Delay || k == MemOpKind::Marker ||
        k == MemOpKind::WaitUntil) {
        return base; // processed regardless of LSU capacity
    }
    return lsu_.canDispatch() ? base : wake_never;
}

void
Hart::tick()
{
    if (sim_.now() < stall_until_)
        return;
    if (marker_waiting_) {
        // RDCYCLE after the measured section: wait until every older
        // memory operation retired, then latch the cycle.
        if (!lsu_.empty())
            return;
        marker_cycles_[pending_marker_] = sim_.now();
        marker_waiting_ = false;
    }
    for (unsigned n = 0; n < dispatch_width_ && pc_ < program_.size(); ++n) {
        const MemOp &op = program_[pc_];
        if (op.kind == MemOpKind::Delay) {
            stall_until_ = sim_.now() + op.delay;
            ++pc_;
            return;
        }
        if (op.kind == MemOpKind::WaitUntil) {
            ++pc_;
            if (sim_.now() < op.delay) {
                stall_until_ = op.delay;
                return;
            }
            continue; // arrival time already passed: dispatch right away
        }
        if (op.kind == MemOpKind::Marker) {
            ++pc_;
            const std::size_t slot = markerSlot(op.data);
            if (lsu_.empty()) {
                marker_cycles_[slot] = sim_.now();
            } else {
                marker_waiting_ = true;
                pending_marker_ = slot;
                return;
            }
            continue;
        }
        if (!lsu_.canDispatch())
            return;
        const std::uint64_t ticket = lsu_.dispatch(op);
        if (op.kind == MemOpKind::Load) {
            if (pc_ >= load_tickets_.size())
                load_tickets_.resize(pc_ + 1);
            load_tickets_[pc_] = ticket;
        }
        ++pc_;
    }
}

} // namespace skipit
