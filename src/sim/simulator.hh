/**
 * @file
 * The cycle-driven simulation kernel.
 */

#ifndef SKIPIT_SIM_SIMULATOR_HH
#define SKIPIT_SIM_SIMULATOR_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "logging.hh"
#include "probe.hh"
#include "ticked.hh"
#include "types.hh"

namespace skipit {

/**
 * Owns the global clock and the list of clocked components.
 *
 * The simulator does not own the components themselves (they are members
 * of higher-level structural objects such as SoC); it only sequences them,
 * in registration order, on the calling thread. step() ticks every
 * component. With fast-forward on, run() and runUntil() tick only what is
 * due (see setFastForward()).
 */
class Simulator
{
  public:
    Simulator() = default;

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Register a component; it is ticked from now on. */
    void add(Ticked &component);

    /** Current simulated cycle (the number of completed cycles). */
    Cycle now() const { return now_; }

    /** Advance the whole machine by exactly one cycle, ticking every
     *  component (never skips: the reference path). */
    void step();

    /** Advance by @p n cycles. */
    void run(Cycle n);

    /**
     * Run until @p done returns true, checking after every cycle.
     *
     * With fast-forward enabled the predicate must be a pure function of
     * component state (not of now()): it is only re-evaluated at cycles
     * where some component can act, which is exactly the set of cycles
     * where its value can change.
     *
     * @param done      termination predicate
     * @param max_cycles safety bound; panics if exceeded (deadlock guard)
     * @return the cycle at which @p done first held
     */
    Cycle runUntil(const std::function<bool()> &done,
                   Cycle max_cycles = 100'000'000);

    /**
     * Enable fast-forwarding in run()/runUntil(). The simulator keeps a
     * calendar of each scheduled component's wake, cached from its last
     * tick and lowered by its input edges (Ticked::wakeAt()). A cycle
     * executes when some component is due; in it, a scheduled component
     * ticks when its cached wake is at or before now() and a fresh
     * nextWake() confirms it, and every observer ticks. Otherwise the
     * clock jumps to the earliest wake. Timing is bit-identical to
     * ticking everything (see the Ticked::nextWake() contract); only
     * wall-clock time changes. Off by default so that hand-stepped unit
     * fixtures keep their exact semantics; SoC turns it on via
     * SoCConfig::fast_forward.
     */
    void setFastForward(bool on) { fast_forward_ = on; }
    bool fastForward() const { return fast_forward_; }

    /** True when no component has self-scheduled work pending. */
    bool quiescent() const;

    /** Cycles skipped (not individually ticked) by fast-forwarding. */
    Cycle skippedCycles() const { return skipped_; }

    /**
     * Tests only: from now on, run() and runUntil() check every calendar
     * decision against a fresh nextWake(). A scheduled component must
     * tick exactly when its fresh wake is at or before now(), and a jump
     * must land on the earliest fresh wake. wakeAudit() keeps the first
     * decision that broke either rule.
     */
    void auditWakes() { audit_ = true; }
    /** The wake audit's first failure, or "" if none. */
    const std::string &wakeAudit() const { return audit_failure_; }

    /**
     * The observability hub: transaction lifecycle events flow through
     * here to any attached sink. Mutable through const references because
     * most components hold `const Simulator &` purely for the clock, and
     * emitting an event never changes simulated state.
     */
    probe::Hub &probes() const { return hub_; }

  private:
    friend class Ticked;

    /** Ticked::wakeAt(): lower slot @p slot's cached wake to @p at. */
    void
    arm(std::uint32_t slot, Cycle at)
    {
        if (at < wake_[slot])
            wake_[slot] = at;
    }

    /** Make every scheduled component re-derive its wake before it is
     *  next ticked or skipped: anything may have changed between runs. */
    void rearm();

    /**
     * The earliest wake. When a cycle is due, the first component due
     * now (confirmed by its nextWake()) is recorded in first_due_ and
     * its wake is returned; otherwise every cached wake at or before
     * now() has been re-asked, and the earliest cached wake is exact.
     */
    Cycle earliestWake();

    /** Execute one cycle: the due components and the observers. */
    void tickDue();

    template <bool Audit> Cycle earliestWakeImpl();
    template <bool Audit> void tickDueImpl();
    void auditFail(std::string what);

    std::vector<Ticked *> components_;
    /** The calendar: each component's cached wake, in registration
     *  order. A cached wake is a lower bound on the component's fresh
     *  nextWake(); observers hold wake_never. */
    std::vector<Cycle> wake_;
    std::vector<std::uint8_t> observer_; //!< 1 for Role::Observer
    std::size_t first_due_ = 0;
    Cycle now_ = 0;
    Cycle skipped_ = 0;
    bool fast_forward_ = false;
    bool audit_ = false;
    std::string audit_failure_;
    mutable probe::Hub hub_;

    // Crash context: a panic anywhere in this simulator's components
    // reports the cycle and the most recent transaction id before the
    // process dies, so truncated traces stay diagnosable.
    ScopedCrashHandler crash_context_{[this](std::ostream &os) {
        os << "  simulator: cycle " << now_ << ", last txn "
           << hub_.lastTxn() << "\n";
    }};
};

inline void
Ticked::wakeAt(Cycle at)
{
    if (calendar_ != nullptr)
        calendar_->arm(slot_, at);
}

} // namespace skipit

#endif // SKIPIT_SIM_SIMULATOR_HH
