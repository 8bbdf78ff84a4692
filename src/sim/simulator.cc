#include "simulator.hh"

#include <algorithm>

#include "logging.hh"

namespace skipit {

namespace {

/** Polite busy-wait: keep the core's pipeline cool between polls. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#else
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

} // namespace

Simulator::~Simulator()
{
    stopWorkers();
}

void
Simulator::add(Ticked &component, Affinity affinity)
{
    SKIPIT_ASSERT(!workers_running_,
                  "components must be registered before the parallel "
                  "engine starts");
    components_.push_back(&component);
    switch (affinity.phase) {
      case Affinity::pre:
        pre_.push_back(&component);
        break;
      case Affinity::mem:
        mem_.push_back(&component);
        break;
      case Affinity::lane:
        if (lanes_.size() <= affinity.index)
            lanes_.resize(affinity.index + 1);
        // Buffer indices follow registration order, so flushing the
        // staging buffers in index order reproduces the serial stream.
        lanes_[affinity.index].push_back(
            LaneComp{&component, lane_comps_++});
        break;
      case Affinity::post:
        post_.push_back(&component);
        break;
    }
}

void
Simulator::setEngine(Engine e, unsigned workers)
{
    if (e == Engine::serial) {
        stopWorkers();
        engine_ = e;
        workers_ = 1;
        return;
    }
    if (workers == 0) {
        workers = std::max(1u, std::thread::hardware_concurrency());
    }
    workers = std::min<unsigned>(workers, 64);
    SKIPIT_ASSERT(!workers_running_ || workers == workers_,
                  "cannot resize a running worker pool");
    engine_ = e;
    workers_ = workers;
}

void
Simulator::startWorkers()
{
    if (workers_running_)
        return;
    // The parallel event stream is replayed as pre, mem, lane, post; the
    // serial stream is registration order. They can only coincide when
    // registration order refines the phase order.
    int last_rank = -1;
    for (const Ticked *c : components_) {
        int rank = -1;
        if (std::find(pre_.begin(), pre_.end(), c) != pre_.end())
            rank = 0;
        else if (std::find(mem_.begin(), mem_.end(), c) != mem_.end())
            rank = 1;
        else if (std::find(post_.begin(), post_.end(), c) != post_.end())
            rank = 3;
        else
            rank = 2; // lane
        SKIPIT_ASSERT(rank >= last_rank,
                      "parallel engine: registration order must be "
                      "sorted by phase (pre, mem, lane, post); '",
                      c->name(), "' is out of order");
        last_rank = rank;
    }
    hub_.enableStaging(lane_comps_);
    stop_.store(false, std::memory_order_relaxed);
    // The calling thread participates, so spawn workers_ - 1 threads.
    const unsigned spawn =
        workers_ > 0 ? std::min<std::size_t>(workers_ - 1, lanes_.size())
                     : 0;
    for (unsigned i = 0; i < spawn; ++i)
        threads_.emplace_back([this] { workerLoop(); });
    workers_running_ = true;
}

void
Simulator::stopWorkers()
{
    if (!workers_running_ && threads_.empty())
        return;
    stop_.store(true, std::memory_order_relaxed);
    // Any change of lane_go_ wakes the workers; they check stop_ before
    // claiming. go_sentinel - 1 can never equal a real base (bases are
    // small monotonic counts), so no claim is possible either way.
    lane_go_.store(go_sentinel - 1, std::memory_order_release);
    lane_go_.notify_all();
    for (std::thread &t : threads_)
        t.join();
    threads_.clear();
    stop_.store(false, std::memory_order_relaxed);
    lane_go_.store(go_sentinel, std::memory_order_relaxed);
    workers_running_ = false;
}

void
Simulator::workerLoop()
{
    std::uint64_t seen = go_sentinel;
    for (;;) {
        // Hybrid wait: spin while cycles are flowing back to back, fall
        // into a futex wait across idle stretches (fast-forward jumps,
        // the gap between runs).
        std::uint64_t go;
        unsigned spins = 0;
        while ((go = lane_go_.load(std::memory_order_acquire)) == seen) {
            if (stop_.load(std::memory_order_relaxed))
                return;
            if (++spins > 4096) {
                lane_go_.wait(seen, std::memory_order_acquire);
                spins = 0;
            } else {
                cpuRelax();
            }
        }
        seen = go;
        if (stop_.load(std::memory_order_relaxed))
            return;
        if (go == go_sentinel)
            continue;
        runClaimedLanes(go);
    }
}

void
Simulator::runClaimedLanes(std::uint64_t base)
{
    for (;;) {
        std::uint64_t v = next_lane_.load(std::memory_order_relaxed);
        if (v - base >= lanes_.size())
            return;
        if (!next_lane_.compare_exchange_weak(v, v + 1,
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed)) {
            continue;
        }
        for (const LaneComp &lc : lanes_[v - base]) {
            hub_.stageInto(lc.buffer);
            lc.component->tick();
        }
        probe::Hub::unstage();
        lanes_done_.fetch_add(1, std::memory_order_release);
    }
}

void
Simulator::parallelStep()
{
    startWorkers();
    for (Ticked *c : pre_)
        c->tick();
    if (!lanes_.empty()) {
        const std::uint64_t base =
            next_lane_.load(std::memory_order_relaxed);
        lanes_done_.store(0, std::memory_order_relaxed);
        lane_go_.store(base, std::memory_order_release);
        lane_go_.notify_all();
        runClaimedLanes(base);
        const unsigned all = static_cast<unsigned>(lanes_.size());
        unsigned spins = 0;
        while (lanes_done_.load(std::memory_order_acquire) < all) {
            if (++spins > 65536) {
                std::this_thread::yield();
                spins = 0;
            } else {
                cpuRelax();
            }
        }
    }
    // The mem phase runs after the barrier on this thread: it is where
    // cross-lane channel handoffs (L2 slice -> per-core link pushes)
    // commit, in slice registration order — exactly the serial order.
    for (Ticked *c : mem_)
        c->tick();
    hub_.flushStaged();
    for (Ticked *c : post_)
        c->tick();
    ++now_;
}

void
Simulator::step()
{
    if (engine_ == Engine::parallel) {
        parallelStep();
        return;
    }
    for (Ticked *c : components_)
        c->tick();
    ++now_;
}

Cycle
Simulator::nextWakeAll() const
{
    Cycle wake = Ticked::wake_never;
    for (const Ticked *c : components_)
        wake = std::min(wake, c->nextWake());
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
