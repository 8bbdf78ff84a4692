/**
 * @file
 * Timing-aware queues used to connect clocked components.
 */

#ifndef SKIPIT_SIM_QUEUES_HH
#define SKIPIT_SIM_QUEUES_HH

#include <algorithm>
#include <cstddef>
#include <deque>
#include <map>
#include <optional>
#include <utility>

#include "logging.hh"
#include "simulator.hh"
#include "types.hh"

namespace skipit {

/**
 * A FIFO whose entries only become visible a fixed number of cycles after
 * they were pushed. A latency of 1 models a registered (flip-flop) boundary
 * between two RTL modules; larger latencies model pipelined wires or SRAM
 * access delays. Entries always pop in push order.
 */
template <typename T>
class DelayQueue
{
  public:
    /**
     * @param sim     simulator supplying the clock
     * @param latency cycles between push and earliest pop (>= 1)
     */
    DelayQueue(const Simulator &sim, Cycle latency)
        : sim_(sim), latency_(latency)
    {
        SKIPIT_ASSERT(latency >= 1, "DelayQueue latency must be >= 1");
    }

    /** Enqueue @p v; it becomes poppable at now + latency. */
    void
    push(T v)
    {
        push(std::move(v), latency_);
    }

    /** Enqueue @p v with an explicit one-off delay (>= default latency). */
    void
    push(T v, Cycle delay)
    {
        const Cycle ready = sim_.now() + std::max(delay, latency_);
        SKIPIT_ASSERT(q_.empty() || q_.back().ready <= ready,
                      "DelayQueue entries must become ready in FIFO order");
        if (q_.empty())
            head_ready_ = ready;
        q_.push_back(Entry{ready, std::move(v)});
    }

    /** True if an entry is visible this cycle. */
    bool ready() const { return head_ready_ <= sim_.now(); }

    /** Peek the visible head; undefined unless ready(). */
    const T &
    front() const
    {
        SKIPIT_ASSERT(ready(), "front() on non-ready DelayQueue");
        return q_.front().value;
    }

    /** Remove and return the visible head; undefined unless ready(). */
    T
    pop()
    {
        SKIPIT_ASSERT(ready(), "pop() on non-ready DelayQueue");
        T v = std::move(q_.front().value);
        q_.pop_front();
        head_ready_ = q_.empty() ? never : q_.front().ready;
        return v;
    }

    bool empty() const { return q_.empty(); }
    std::size_t size() const { return q_.size(); }

    /**
     * Cycle at which the head entry becomes visible; undefined unless
     * !empty(). Entries ready in FIFO order (asserted in push), so the
     * head is also the earliest. Used for quiescence wake computation.
     */
    Cycle
    frontReadyAt() const
    {
        SKIPIT_ASSERT(!q_.empty(), "frontReadyAt() on empty DelayQueue");
        return head_ready_;
    }

  private:
    struct Entry
    {
        Cycle ready;
        T value;
    };

    static constexpr Cycle never = Ticked::wake_never;

    const Simulator &sim_;
    Cycle latency_;
    std::deque<Entry> q_;
    /** The head's ready cycle, never when empty: polls read this
     *  member instead of a deque block. */
    Cycle head_ready_ = never;
};

/**
 * A bounded same-cycle FIFO used for structures like the flush queue where
 * capacity (and the nack on overflow) is the architecturally relevant
 * property rather than latency.
 */
template <typename T>
class BoundedFifo
{
  public:
    explicit BoundedFifo(std::size_t capacity) : capacity_(capacity) {}

    bool full() const { return q_.size() >= capacity_; }
    bool empty() const { return q_.empty(); }
    std::size_t size() const { return q_.size(); }
    std::size_t capacity() const { return capacity_; }

    /** @return false (and leave the queue unchanged) when full. */
    bool
    tryPush(T v)
    {
        if (full())
            return false;
        q_.push_back(std::move(v));
        return true;
    }

    T &front() { return q_.front(); }
    const T &front() const { return q_.front(); }

    T
    pop()
    {
        SKIPIT_ASSERT(!q_.empty(), "pop() on empty BoundedFifo");
        T v = std::move(q_.front());
        q_.pop_front();
        return v;
    }

    /** Iteration support (e.g. flush-queue probes scan all entries). */
    auto begin() { return q_.begin(); }
    auto end() { return q_.end(); }
    auto begin() const { return q_.begin(); }
    auto end() const { return q_.end(); }

    /** Erase entries matching a predicate (used for coalesced drops). */
    template <typename Pred>
    std::size_t
    eraseIf(Pred pred)
    {
        const auto old = q_.size();
        q_.erase(std::remove_if(q_.begin(), q_.end(), pred), q_.end());
        return old - q_.size();
    }

  private:
    std::size_t capacity_;
    std::deque<T> q_;
};

/**
 * A completion buffer: entries become visible at per-entry ready times and
 * pop in ready-time order (ties resolved in insertion order). Used for CPU
 * responses, where a nack, a 3-cycle hit and a replayed miss all complete
 * with different latencies.
 */
template <typename T>
class CompletionBuffer
{
  public:
    explicit CompletionBuffer(const Simulator &sim) : sim_(sim) {}

    /** Schedule @p v to complete at absolute cycle @p ready_at. */
    void
    push(T v, Cycle ready_at)
    {
        buf_.emplace(ready_at, std::move(v));
        head_ready_ = std::min(head_ready_, ready_at);
    }

    /** Schedule @p v to complete @p delay cycles from now. */
    void
    pushIn(T v, Cycle delay)
    {
        push(std::move(v), sim_.now() + delay);
    }

    bool ready() const { return head_ready_ <= sim_.now(); }

    T
    pop()
    {
        SKIPIT_ASSERT(ready(), "pop() on non-ready CompletionBuffer");
        auto it = buf_.begin();
        T v = std::move(it->second);
        buf_.erase(it);
        head_ready_ = buf_.empty() ? never : buf_.begin()->first;
        return v;
    }

    /** The entry pop() would return; undefined unless ready(). */
    const T &
    front() const
    {
        SKIPIT_ASSERT(ready(), "front() on non-ready CompletionBuffer");
        return buf_.begin()->second;
    }

    bool empty() const { return buf_.empty(); }
    std::size_t size() const { return buf_.size(); }

    /**
     * Earliest completion cycle of any buffered entry; undefined unless
     * !empty(). Used for quiescence wake computation.
     */
    Cycle
    frontReadyAt() const
    {
        SKIPIT_ASSERT(!buf_.empty(),
                      "frontReadyAt() on empty CompletionBuffer");
        return head_ready_;
    }

  private:
    static constexpr Cycle never = Ticked::wake_never;

    const Simulator &sim_;
    std::multimap<Cycle, T> buf_;
    /** The earliest ready cycle, never when empty: polls read this
     *  member instead of a tree node. */
    Cycle head_ready_ = never;
};

} // namespace skipit

#endif // SKIPIT_SIM_QUEUES_HH
