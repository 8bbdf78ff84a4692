#include "simulator.hh"

#include <algorithm>

#include "logging.hh"

namespace skipit {

void
Simulator::add(Ticked &component)
{
    SKIPIT_ASSERT(component.calendar_ == nullptr, "component ",
                  component.name(), " registered twice");
    const bool observer = component.role() == Ticked::Role::Observer;
    component.calendar_ = this;
    component.slot_ = static_cast<std::uint32_t>(components_.size());
    components_.push_back(&component);
    wake_.push_back(observer ? Ticked::wake_never : now_);
    observer_.push_back(observer ? 1 : 0);
}

void
Simulator::step()
{
    for (Ticked *c : components_)
        c->tick();
    ++now_;
}

bool
Simulator::quiescent() const
{
    for (std::size_t i = 0; i < components_.size(); ++i) {
        if (!observer_[i] &&
            components_[i]->nextWake() != Ticked::wake_never) {
            return false;
        }
    }
    return true;
}

void
Simulator::rearm()
{
    for (std::size_t i = 0; i < wake_.size(); ++i) {
        if (!observer_[i])
            wake_[i] = now_;
    }
}

void
Simulator::auditFail(std::string what)
{
    if (audit_failure_.empty())
        audit_failure_ = std::move(what);
}

template <bool Audit>
Cycle
Simulator::earliestWakeImpl()
{
    Cycle earliest = Ticked::wake_never;
    for (std::size_t i = 0; i < wake_.size(); ++i) {
        if (wake_[i] <= now_) {
            // A cached wake is a lower bound: ask whether it is due.
            wake_[i] = components_[i]->nextWake();
            if (wake_[i] <= now_) {
                first_due_ = i;
                return wake_[i];
            }
        }
        earliest = std::min(earliest, wake_[i]);
    }
    if constexpr (Audit) {
        Cycle fresh = Ticked::wake_never;
        for (std::size_t i = 0; i < components_.size(); ++i) {
            if (!observer_[i])
                fresh = std::min(fresh, components_[i]->nextWake());
        }
        if (fresh != earliest) {
            auditFail(detail::concat("cycle ", now_, ": jump to ",
                                     earliest, ", but the earliest fresh "
                                     "wake is ", fresh));
        }
    }
    return earliest;
}

template <bool Audit>
void
Simulator::tickDueImpl()
{
    for (std::size_t i = 0; i < components_.size(); ++i) {
        Ticked &c = *components_[i];
        if (observer_[i]) {
            c.tick();
            continue;
        }
        Cycle fresh = 0;
        if constexpr (Audit)
            fresh = c.nextWake();
        bool due = wake_[i] <= now_;
        // earliestWake() confirmed the first due component, and nothing
        // but observers has ticked before it in this cycle.
        if (due && i != first_due_) {
            wake_[i] = c.nextWake();
            due = wake_[i] <= now_;
        }
        if constexpr (Audit) {
            if (due != (fresh <= now_)) {
                auditFail(detail::concat(
                    "cycle ", now_, ": ", due ? "ticked " : "skipped ",
                    c.name(), ", whose fresh wake is ", fresh));
            }
        }
        if (!due)
            continue;
        c.tick();
        wake_[i] = now_; // asked again before its next tick or skip
    }
    ++now_;
}

Cycle
Simulator::earliestWake()
{
    return audit_ ? earliestWakeImpl<true>() : earliestWakeImpl<false>();
}

void
Simulator::tickDue()
{
    if (audit_)
        tickDueImpl<true>();
    else
        tickDueImpl<false>();
}

void
Simulator::run(Cycle n)
{
    const Cycle target = now_ + n;
    if (!fast_forward_) {
        while (now_ < target)
            step();
        return;
    }
    rearm();
    while (now_ < target) {
        const Cycle wake = earliestWake();
        if (wake > now_) {
            // Every tick in [now, wake) is a provable no-op: jump.
            const Cycle to = std::min(wake, target);
            skipped_ += to - now_;
            now_ = to;
            continue;
        }
        tickDue();
    }
}

Cycle
Simulator::runUntil(const std::function<bool()> &done, Cycle max_cycles)
{
    const Cycle limit = now_ + max_cycles;
    if (fast_forward_)
        rearm();
    while (!done()) {
        if (now_ >= limit) {
            SKIPIT_PANIC("runUntil exceeded ", max_cycles,
                         " cycles; likely deadlock");
        }
        if (!fast_forward_) {
            step();
            continue;
        }
        const Cycle wake = earliestWake();
        if (wake > now_) {
            if (wake == Ticked::wake_never) {
                // Fully quiescent and done() still false: no future
                // tick can change that. Trip the deadlock guard now
                // instead of spinning to the limit.
                now_ = limit;
                continue;
            }
            const Cycle to = std::min(wake, limit);
            skipped_ += to - now_;
            now_ = to;
            continue;
        }
        tickDue();
    }
    return now_;
}

} // namespace skipit
