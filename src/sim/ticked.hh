/**
 * @file
 * Base class for clocked hardware components.
 */

#ifndef SKIPIT_SIM_TICKED_HH
#define SKIPIT_SIM_TICKED_HH

#include <limits>
#include <string>
#include <utility>

#include "types.hh"

namespace skipit {

class Simulator;

/**
 * A hardware component evaluated once per simulated cycle.
 *
 * Components register themselves with a Simulator; the simulator calls
 * tick() on each registered component every cycle in registration order,
 * which keeps the model fully deterministic. Cross-component communication
 * must go through DelayQueue / TimedFifo style structures so that a value
 * produced in cycle N is consumed no earlier than cycle N+1, mimicking
 * registered (flip-flop) boundaries between RTL modules.
 */
class Ticked
{
  public:
    explicit Ticked(std::string name) : name_(std::move(name)) {}
    virtual ~Ticked() = default;

    Ticked(const Ticked &) = delete;
    Ticked &operator=(const Ticked &) = delete;

    /** Advance this component by one clock cycle. */
    virtual void tick() = 0;

    /** nextWake() return value meaning "no self-scheduled work at all". */
    static constexpr Cycle wake_never = std::numeric_limits<Cycle>::max();

    /**
     * Quiescence contract: the earliest cycle at which this component's
     * tick() might do anything at all — change state, bump a counter, or
     * emit a probe event. The simulator's fast-forward mode skips the
     * clock across stretches where every component's wake lies in the
     * future, so the *only* legal way to be wrong is to be conservative:
     *
     *  - Returning a cycle <= now() means "tick me this cycle". That is
     *    always safe; a tick that turns out to be a no-op is identical
     *    to the baseline behaviour.
     *  - Returning a future cycle W asserts that every tick() in
     *    [now(), W) is a provable no-op given current state. Skipping
     *    them must be indistinguishable from executing them.
     *  - Returning wake_never asserts the component only acts in
     *    response to another component's activity (e.g. a message
     *    arriving on a channel). This is safe because the simulator
     *    asks for wakes again after each executed cycle, and state only
     *    changes in executed cycles. It stops asking at the first wake
     *    at or before now(): every component ticks in that cycle anyway.
     *
     * The default ("always tick me") opts a component out of
     * fast-forwarding without any correctness risk.
     */
    virtual Cycle nextWake() const { return 0; }

    /** Hierarchical instance name, e.g. "soc.core0.l1d.flushUnit". */
    const std::string &name() const { return name_; }

  private:
    std::string name_;
};

} // namespace skipit

#endif // SKIPIT_SIM_TICKED_HH
