/**
 * @file
 * The cycle-driven simulation kernel: a serial reference engine and a
 * deterministic parallel engine over the same component list.
 */

#ifndef SKIPIT_SIM_SIMULATOR_HH
#define SKIPIT_SIM_SIMULATOR_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <ostream>
#include <thread>
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
 * of higher-level structural objects such as SoC); it only sequences them.
 *
 * Two engines sequence a cycle:
 *
 *  - serial (the default, and the reference semantics): every component
 *    ticks exactly once per cycle in registration order.
 *  - parallel: components are partitioned by their registration Affinity
 *    into four phases — pre (serial), lane (one lane per core, ticked
 *    concurrently on a worker pool), mem (serial: the cross-lane commit
 *    phase), post (serial) — with a barrier between the lane phase and
 *    the mem phase. The schedule is bit-identical to the serial engine
 *    at any worker count; docs/PARALLELISM.md states the contract and
 *    the proof obligations each phase assignment discharges.
 */
class Simulator
{
  public:
    enum class Engine
    {
        serial,  //!< reference: registration order, one thread
        parallel //!< phase-partitioned worker-pool engine
    };

    /** Where a component runs under the parallel engine. The serial
     *  engine ignores affinity entirely. */
    struct Affinity
    {
        enum Phase : std::uint8_t
        {
            pre,  //!< serial, before the lanes (DRAM, crossbar)
            mem,  //!< serial, after the lane barrier (L2 slices): the
                  //!< phase that commits cross-lane channel handoffs
            lane, //!< concurrent: one lane per core (L1 + LSU + Hart)
            post, //!< serial, after everything (watchdog, checker)
        };
        constexpr Affinity(Phase p = pre, unsigned i = 0)
            : phase(p), index(i)
        {
        }

        Phase phase;
        unsigned index; //!< lane index; meaningful when phase == lane
    };

    Simulator() = default;
    ~Simulator();

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /**
     * Register a component; it will be ticked every cycle from now on.
     * @param affinity parallel-engine placement. The registration order
     *        must be sorted by phase (pre, mem, lane, post) so that the
     *        parallel engine's event stream can reproduce the serial
     *        one; asserted when the parallel engine starts.
     */
    void add(Ticked &component, Affinity affinity = {});

    /**
     * Select the tick engine.
     * @param workers total thread count for the lane phase including the
     *        caller (0 = hardware concurrency). With workers == 1 the
     *        lane phase runs on the calling thread — still through the
     *        staging machinery, so it exercises the same code paths.
     */
    void setEngine(Engine e, unsigned workers = 0);
    Engine engine() const { return engine_; }
    unsigned workers() const { return workers_; }

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
    /** Earliest nextWake() over all components (wake_never when empty). */
    Cycle nextWakeAll() const;

    void parallelStep();
    void startWorkers();
    void stopWorkers();
    void workerLoop();
    /**
     * Claim and tick lanes until the cycle's lane pool is drained.
     * @param base value of next_lane_ at the start of this cycle's lane
     *        phase; claims are CAS-only, so a worker whose last (empty)
     *        claim attempt straggles into the next cycle observes the
     *        pool as drained and never perturbs the counter.
     */
    void runClaimedLanes(std::uint64_t base);

    /** A lane-phase component and its probe staging buffer index. */
    struct LaneComp
    {
        Ticked *component;
        std::size_t buffer;
    };

    std::vector<Ticked *> components_;
    Cycle now_ = 0;
    Cycle skipped_ = 0;
    bool fast_forward_ = false;
    mutable probe::Hub hub_;

    // --- parallel engine ---------------------------------------------
    Engine engine_ = Engine::serial;
    unsigned workers_ = 1;
    bool workers_running_ = false;
    std::vector<Ticked *> pre_;
    std::vector<Ticked *> mem_;
    std::vector<Ticked *> post_;
    std::vector<std::vector<LaneComp>> lanes_;
    std::size_t lane_comps_ = 0;
    std::vector<std::thread> threads_;
    /** Monotonic claim counter; lane = claimed - base. */
    std::atomic<std::uint64_t> next_lane_{0};
    /**
     * The lane-phase start signal and claim base in one word: each cycle
     * the stepping thread publishes the cycle's next_lane_ snapshot here
     * (release), and workers treat any value change (acquire) as "go".
     * The base grows by the lane count every cycle, so consecutive
     * cycles always publish distinct values, and reading the signal is
     * indivisible from reading the base. go_sentinel means "no lane
     * phase has started yet".
     */
    static constexpr std::uint64_t go_sentinel = ~std::uint64_t{0};
    std::atomic<std::uint64_t> lane_go_{go_sentinel};
    std::atomic<unsigned> lanes_done_{0};
    std::atomic<bool> stop_{false};

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
