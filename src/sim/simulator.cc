#include "simulator.hh"

#include <algorithm>

#include "logging.hh"

namespace skipit {

void
Simulator::step()
{
    for (Ticked *c : components_)
        c->tick();
    ++now_;
}

Cycle
Simulator::nextWakeAll() const
{
    Cycle wake = Ticked::wake_never;
    for (const Ticked *c : components_) {
        wake = std::min(wake, c->nextWake());
        if (wake <= now_)
            return wake; // a tick is due now: no later wake can matter
    }
    return wake;
}

void
Simulator::run(Cycle n)
{
    const Cycle target = now_ + n;
    while (now_ < target) {
        if (fast_forward_) {
            const Cycle wake = nextWakeAll();
            if (wake > now_) {
                // Every tick in [now, wake) is a provable no-op: jump.
                const Cycle to = std::min(wake, target);
                skipped_ += to - now_;
                now_ = to;
                continue;
            }
        }
        step();
    }
}

Cycle
Simulator::runUntil(const std::function<bool()> &done, Cycle max_cycles)
{
    const Cycle limit = now_ + max_cycles;
    while (!done()) {
        if (now_ >= limit) {
            SKIPIT_PANIC("runUntil exceeded ", max_cycles,
                         " cycles; likely deadlock");
        }
        if (fast_forward_) {
            const Cycle wake = nextWakeAll();
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
        }
        step();
    }
    return now_;
}

} // namespace skipit
