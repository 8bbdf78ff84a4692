/**
 * @file
 * Timing-aware queues used to connect clocked components.
 *
 * Every queue here stores its entries in a Ring: one power-of-two array
 * that grows, by doubling, only when a push finds it full. A queue costs
 * no heap until its first push and allocates nothing once it has reached
 * its high-water mark, so the request path makes no heap allocation in
 * steady state (tests/sim/test_no_alloc.cc). Unlike a deque, a push
 * may move every entry: a reference taken from a queue is invalid after
 * the next push onto that queue.
 */

#ifndef SKIPIT_SIM_QUEUES_HH
#define SKIPIT_SIM_QUEUES_HH

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

#include "logging.hh"
#include "simulator.hh"
#include "types.hh"

namespace skipit {

/**
 * A FIFO over a power-of-two ring of slots, indexed by mask. Position 0
 * is the head; front(), back() and popFront() are undefined when empty.
 * Popped slots keep their moved-from values until reused, so T must be
 * default-constructible and cheap to keep around (the simulator's
 * message types are plain structs).
 */
template <typename T>
class Ring
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** The entry at queue position @p i (0 is the head). */
    T &operator[](std::size_t i) { return slots_[(head_ + i) & mask_]; }
    const T &
    operator[](std::size_t i) const
    {
        return slots_[(head_ + i) & mask_];
    }

    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }
    const T &back() const { return (*this)[size_ - 1]; }

    void
    pushBack(T v)
    {
        if (size_ == slots_.size())
            grow();
        slots_[(head_ + size_) & mask_] = std::move(v);
        ++size_;
    }

    T
    popFront()
    {
        T v = std::move(slots_[head_]);
        head_ = (head_ + 1) & mask_;
        --size_;
        return v;
    }

    /** Drop the entries matching @p pred, keeping the rest in queue
     *  order. @return the number dropped. */
    template <typename Pred>
    std::size_t
    eraseIf(Pred pred)
    {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < size_; ++i) {
            T &v = (*this)[i];
            if (pred(std::as_const(v)))
                continue;
            if (kept != i)
                (*this)[kept] = std::move(v);
            ++kept;
        }
        const std::size_t erased = size_ - kept;
        size_ = kept;
        return erased;
    }

    /** A forward iterator visiting the entries head to tail. */
    template <bool Const>
    class Iter
    {
        using Owner = std::conditional_t<Const, const Ring, Ring>;

      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = std::conditional_t<Const, const T *, T *>;
        using reference = std::conditional_t<Const, const T &, T &>;

        Iter() = default;
        Iter(Owner &ring, std::size_t pos) : ring_(&ring), pos_(pos) {}
        reference operator*() const { return (*ring_)[pos_]; }
        pointer operator->() const { return &(*ring_)[pos_]; }
        Iter &
        operator++()
        {
            ++pos_;
            return *this;
        }
        Iter
        operator++(int)
        {
            Iter old = *this;
            ++pos_;
            return old;
        }
        bool operator==(const Iter &o) const { return pos_ == o.pos_; }

      private:
        Owner *ring_ = nullptr;
        std::size_t pos_ = 0;
    };

    Iter<false> begin() { return {*this, 0}; }
    Iter<false> end() { return {*this, size_}; }
    Iter<true> begin() const { return {*this, 0}; }
    Iter<true> end() const { return {*this, size_}; }

  private:
    /** Slots allocated by the first push. */
    static constexpr std::size_t first_slots = 8;

    std::vector<T> slots_;
    std::size_t mask_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;

    /** Double the slots (first_slots on the first push), moving the
     *  entries to positions 0.. of the new array. */
    void
    grow()
    {
        std::vector<T> next(slots_.empty() ? first_slots
                                           : 2 * slots_.size());
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = std::move((*this)[i]);
        slots_.swap(next);
        mask_ = slots_.size() - 1;
        head_ = 0;
    }
};

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
        q_.pushBack(Entry{ready, std::move(v)});
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
        T v = std::move(q_.popFront().value);
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
        Cycle ready = 0;
        T value{};
    };

    static constexpr Cycle never = Ticked::wake_never;

    const Simulator &sim_;
    Cycle latency_;
    Ring<Entry> q_;
    /** The head's ready cycle, never when empty: polls read this
     *  member instead of a ring slot. */
    Cycle head_ready_ = never;
};

/**
 * A bounded same-cycle FIFO used for structures like the flush queue where
 * capacity (and the nack on overflow) is the architecturally relevant
 * property rather than latency. Its ring grows to the entries actually
 * queued, never to the capacity up front.
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
        q_.pushBack(std::move(v));
        return true;
    }

    T &
    front()
    {
        SKIPIT_ASSERT(!q_.empty(), "front() on empty BoundedFifo");
        return q_.front();
    }
    const T &
    front() const
    {
        SKIPIT_ASSERT(!q_.empty(), "front() on empty BoundedFifo");
        return q_.front();
    }

    T
    pop()
    {
        SKIPIT_ASSERT(!q_.empty(), "pop() on empty BoundedFifo");
        return q_.popFront();
    }

    /** Iteration, head to tail (e.g. flush-queue probes scan all
     *  entries). */
    auto begin() { return q_.begin(); }
    auto end() { return q_.end(); }
    auto begin() const { return q_.begin(); }
    auto end() const { return q_.end(); }

    /** Erase entries matching a predicate, keeping the rest in queue
     *  order (used for coalesced drops). */
    template <typename Pred>
    std::size_t
    eraseIf(Pred pred)
    {
        return q_.eraseIf(pred);
    }

  private:
    std::size_t capacity_;
    Ring<T> q_;
};

/**
 * A completion buffer: entries become visible at per-entry ready times and
 * pop in ready-time order (ties resolved in insertion order). Used for CPU
 * responses, where a nack, a 3-cycle hit and a replayed miss all complete
 * with different latencies.
 *
 * The entries sit in one ring sorted by (ready cycle, push order): a push
 * appends and moves ahead of every entry that becomes ready later. Most
 * pushes complete last and move nowhere, and the LSU window and the DRAM
 * in-flight limit keep the buffers short.
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
        q_.pushBack(Entry{ready_at, std::move(v)});
        for (std::size_t i = q_.size() - 1;
             i > 0 && q_[i - 1].ready > ready_at; --i) {
            std::swap(q_[i - 1], q_[i]);
        }
        head_ready_ = q_.front().ready;
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
        T v = std::move(q_.popFront().value);
        head_ready_ = q_.empty() ? never : q_.front().ready;
        return v;
    }

    /** The entry pop() would return; undefined unless ready(). */
    const T &
    front() const
    {
        SKIPIT_ASSERT(ready(), "front() on non-ready CompletionBuffer");
        return q_.front().value;
    }

    bool empty() const { return q_.empty(); }
    std::size_t size() const { return q_.size(); }

    /**
     * Earliest completion cycle of any buffered entry; undefined unless
     * !empty(). Used for quiescence wake computation.
     */
    Cycle
    frontReadyAt() const
    {
        SKIPIT_ASSERT(!q_.empty(),
                      "frontReadyAt() on empty CompletionBuffer");
        return head_ready_;
    }

  private:
    struct Entry
    {
        Cycle ready = 0;
        T value{};
    };

    static constexpr Cycle never = Ticked::wake_never;

    const Simulator &sim_;
    Ring<Entry> q_;
    /** The earliest ready cycle, never when empty: polls read this
     *  member instead of a ring slot. */
    Cycle head_ready_ = never;
};

} // namespace skipit

#endif // SKIPIT_SIM_QUEUES_HH
