/**
 * @file
 * Base class for clocked hardware components.
 */

#ifndef SKIPIT_SIM_TICKED_HH
#define SKIPIT_SIM_TICKED_HH

#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "types.hh"

namespace skipit {

class Simulator;

/**
 * A hardware component evaluated once per simulated cycle.
 *
 * Components register themselves with a Simulator, which ticks them in
 * registration order, keeping the model fully deterministic.
 * Cross-component communication must go through DelayQueue / TimedFifo
 * style structures so that a value produced in cycle N is consumed no
 * earlier than cycle N+1, mimicking registered (flip-flop) boundaries
 * between RTL modules.
 *
 * Under step() (and with fast-forward off) every component ticks every
 * cycle. With fast-forward on, run() and runUntil() tick a scheduled
 * component only in cycles where its nextWake() is due, so a tick the
 * simulator skips must be a no-op; observers tick in every executed
 * cycle (see Role).
 */
class Ticked
{
  public:
    /** How the fast-forward calendar schedules a component. */
    enum class Role
    {
        /** Ticks in the executed cycles where its nextWake() is at or
         *  before now(). */
        Scheduled,
        /** Reads the machine and never changes it (the checker, the
         *  durability oracle, the crash freezer): ticks in every executed
         *  cycle, is never asked for nextWake(), and never makes a cycle
         *  execute. */
        Observer,
    };

    explicit Ticked(std::string name, Role role = Role::Scheduled)
        : name_(std::move(name)), role_(role)
    {
    }
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
     * emit a probe event. The simulator skips every tick it can prove is
     * a no-op, so the *only* legal way to be wrong is to be conservative:
     *
     *  - Returning a cycle <= now() means "tick me this cycle". That is
     *    always safe; a tick that turns out to be a no-op is identical
     *    to the baseline behaviour.
     *  - Returning a future cycle W asserts that every tick() in
     *    [now(), W) is a provable no-op given current state. Skipping
     *    them must be indistinguishable from executing them.
     *  - Returning wake_never asserts the component only acts in
     *    response to another component's activity (e.g. a message
     *    arriving on a channel).
     *
     * Both of the last two rest on input edges: whatever another
     * component does that can make this one's wake earlier — a message
     * sent towards it, a request submitted to it, a state change it
     * reads — must call wakeAt() on it. The simulator keeps each wake
     * from the component's last tick and only re-asks when a cached wake
     * or an edge says the component may be due.
     *
     * The default ("always tick me") opts a component out of skipping
     * without any correctness risk.
     */
    virtual Cycle nextWake() const { return 0; }

    /**
     * Input edge: this component's nextWake() may now be as early as
     * @p at. Producers call it on their consumer whenever they give it
     * work; a no-op for a component no simulator ticks yet. Defined in
     * simulator.hh, which owns the calendar it writes.
     */
    inline void wakeAt(Cycle at);

    /** Hierarchical instance name, e.g. "soc.core0.l1d.flushUnit". */
    const std::string &name() const { return name_; }
    Role role() const { return role_; }

  private:
    friend class Simulator;

    std::string name_;
    Role role_;
    /** The simulator ticking this component, and its calendar slot. */
    Simulator *calendar_ = nullptr;
    std::uint32_t slot_ = 0;
};

} // namespace skipit

#endif // SKIPIT_SIM_TICKED_HH
