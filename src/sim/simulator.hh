/**
 * @file
 * The cycle-driven simulation kernel.
 */

#ifndef SKIPIT_SIM_SIMULATOR_HH
#define SKIPIT_SIM_SIMULATOR_HH

#include <functional>
#include <ostream>
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
 * of higher-level structural objects such as SoC); it only sequences them:
 * every cycle, each component ticks exactly once, in registration order,
 * on the calling thread.
 */
class Simulator
{
  public:
    Simulator() = default;

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Register a component; it will be ticked every cycle from now on. */
    void add(Ticked &component) { components_.push_back(&component); }

    /** Current simulated cycle (the number of completed cycles). */
    Cycle now() const { return now_; }

    /** Advance the whole machine by exactly one cycle (never skips). */
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
     * Enable quiescence fast-forwarding: run()/runUntil() jump the clock
     * in bulk across stretches where every component's nextWake() lies in
     * the future. Timing is bit-identical to the ticked baseline (see the
     * Ticked::nextWake() contract); only wall-clock time changes. Off by
     * default so that hand-stepped unit fixtures keep their exact
     * semantics; SoC turns it on via SoCConfig::fast_forward.
     */
    void setFastForward(bool on) { fast_forward_ = on; }
    bool fastForward() const { return fast_forward_; }

    /** True when no component has self-scheduled work pending. */
    bool quiescent() const { return nextWakeAll() == Ticked::wake_never; }

    /** Cycles skipped (not individually ticked) by fast-forwarding. */
    Cycle skippedCycles() const { return skipped_; }

    /**
     * The observability hub: transaction lifecycle events flow through
     * here to any attached sink. Mutable through const references because
     * most components hold `const Simulator &` purely for the clock, and
     * emitting an event never changes simulated state.
     */
    probe::Hub &probes() const { return hub_; }

  private:
    /** Earliest nextWake() over all components (wake_never when empty),
     *  or the first one at or before now(): callers only compare the
     *  result with now() and wake_never, and that wake settles both. */
    Cycle nextWakeAll() const;

    std::vector<Ticked *> components_;
    Cycle now_ = 0;
    Cycle skipped_ = 0;
    bool fast_forward_ = false;
    mutable probe::Hub hub_;

    // Crash context: a panic anywhere in this simulator's components
    // reports the cycle and the most recent transaction id before the
    // process dies, so truncated traces stay diagnosable.
    ScopedCrashHandler crash_context_{[this](std::ostream &os) {
        os << "  simulator: cycle " << now_ << ", last txn "
           << hub_.lastTxn() << "\n";
    }};
};

} // namespace skipit

#endif // SKIPIT_SIM_SIMULATOR_HH
