/**
 * @file
 * Unit tests for the timing-aware queue primitives, and randomized
 * differential rows that run each queue against a std::deque or
 * std::multimap reference model kept here.
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "sim/queues.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

namespace skipit {
namespace {

TEST(DelayQueue, EntryInvisibleUntilLatencyElapses)
{
    Simulator sim;
    DelayQueue<int> q(sim, 3);
    q.push(42);
    EXPECT_FALSE(q.ready());
    sim.run(2);
    EXPECT_FALSE(q.ready());
    sim.run(1);
    ASSERT_TRUE(q.ready());
    EXPECT_EQ(q.pop(), 42);
}

TEST(DelayQueue, PopsInPushOrder)
{
    Simulator sim;
    DelayQueue<int> q(sim, 1);
    q.push(1);
    q.push(2);
    q.push(3);
    sim.run(1);
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.pop(), 3);
}

TEST(DelayQueue, ExplicitDelayExtendsVisibility)
{
    Simulator sim;
    DelayQueue<int> q(sim, 1);
    q.push(7, 5);
    sim.run(4);
    EXPECT_FALSE(q.ready());
    sim.run(1);
    EXPECT_TRUE(q.ready());
}

TEST(DelayQueue, SizeTracksContents)
{
    Simulator sim;
    DelayQueue<int> q(sim, 1);
    EXPECT_TRUE(q.empty());
    q.push(1);
    q.push(2);
    EXPECT_EQ(q.size(), 2u);
    sim.run(1);
    q.pop();
    EXPECT_EQ(q.size(), 1u);
}

TEST(BoundedFifo, RejectsWhenFull)
{
    BoundedFifo<int> f(2);
    EXPECT_TRUE(f.tryPush(1));
    EXPECT_TRUE(f.tryPush(2));
    EXPECT_TRUE(f.full());
    EXPECT_FALSE(f.tryPush(3));
    EXPECT_EQ(f.pop(), 1);
    EXPECT_TRUE(f.tryPush(3));
    EXPECT_EQ(f.pop(), 2);
    EXPECT_EQ(f.pop(), 3);
}

TEST(BoundedFifo, EraseIfRemovesMatching)
{
    BoundedFifo<int> f(8);
    for (int i = 0; i < 6; ++i)
        f.tryPush(i);
    const auto removed = f.eraseIf([](int v) { return v % 2 == 0; });
    EXPECT_EQ(removed, 3u);
    EXPECT_EQ(f.size(), 3u);
    EXPECT_EQ(f.pop(), 1);
    EXPECT_EQ(f.pop(), 3);
    EXPECT_EQ(f.pop(), 5);
}

TEST(BoundedFifo, IterationVisitsAllEntries)
{
    BoundedFifo<int> f(4);
    f.tryPush(10);
    f.tryPush(20);
    int sum = 0;
    for (int v : f)
        sum += v;
    EXPECT_EQ(sum, 30);
}

TEST(CompletionBuffer, PopsInReadyOrderNotPushOrder)
{
    Simulator sim;
    CompletionBuffer<int> b(sim);
    b.pushIn(1, 10);
    b.pushIn(2, 3);
    b.pushIn(3, 7);
    sim.run(3);
    ASSERT_TRUE(b.ready());
    EXPECT_EQ(b.pop(), 2);
    EXPECT_FALSE(b.ready());
    sim.run(4);
    EXPECT_EQ(b.pop(), 3);
    sim.run(3);
    EXPECT_EQ(b.pop(), 1);
    EXPECT_TRUE(b.empty());
}

TEST(CompletionBuffer, TiesResolveInInsertionOrder)
{
    Simulator sim;
    CompletionBuffer<int> b(sim);
    b.pushIn(1, 2);
    b.pushIn(2, 2);
    sim.run(2);
    EXPECT_EQ(b.pop(), 1);
    EXPECT_EQ(b.pop(), 2);
}

// ---------------------------------------------------------------------
// Ring storage: wrap-around and growth.
// ---------------------------------------------------------------------

TEST(BoundedFifo, EraseIfAcrossTheWrapPointKeepsQueueOrder)
{
    BoundedFifo<int> f(64);
    // Fill the first 8 slots, then move the head to slot 5 and push
    // past the end, so the entries wrap: slots 5..7 then 0..3.
    for (int i = 0; i < 8; ++i)
        f.tryPush(i);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(f.pop(), i);
    for (int i = 8; i < 12; ++i)
        f.tryPush(i);
    EXPECT_EQ(f.eraseIf([](int v) { return v % 2 == 0; }), 3u);
    EXPECT_EQ(std::vector<int>(f.begin(), f.end()),
              (std::vector<int>{5, 7, 9, 11}));
    // Grow while wrapped: the entries keep their order.
    for (int i = 12; i < 24; ++i)
        f.tryPush(i);
    std::vector<int> want{5, 7, 9, 11};
    for (int i = 12; i < 24; ++i)
        want.push_back(i);
    EXPECT_EQ(std::vector<int>(f.begin(), f.end()), want);
    for (const int v : want)
        EXPECT_EQ(f.pop(), v);
    EXPECT_TRUE(f.empty());
}

TEST(BoundedFifoDeathTest, FrontOfAnEmptyQueuePanics)
{
    BoundedFifo<int> f(4);
    EXPECT_DEATH(f.front(), "front\\(\\) on empty BoundedFifo");
    f.tryPush(1);
    f.pop();
    EXPECT_DEATH(f.front(), "front\\(\\) on empty BoundedFifo");
}

// ---------------------------------------------------------------------
// Differential rows: 10^5 random operations per queue type, checked
// against a reference model after every operation. Capacities and
// occupancies range past the ring's first 8 slots, so each row grows
// its ring and wraps it many times.
// ---------------------------------------------------------------------

constexpr int diff_ops = 100'000;

TEST(QueueDifferential, RingMatchesDeque)
{
    Rng rng(1);
    Ring<int> ring;
    std::deque<int> ref;
    int next = 0;
    for (int op = 0; op < diff_ops; ++op) {
        // Drift the occupancy between empty and ~40 entries.
        const bool fill = (op / 500) % 2 == 0;
        if (!ref.empty() && rng.chance(fill ? 0.35 : 0.65)) {
            ASSERT_EQ(ring.popFront(), ref.front()) << "op " << op;
            ref.pop_front();
        } else if (ref.size() < 40) {
            ring.pushBack(next);
            ref.push_back(next++);
        } else {
            const int k = static_cast<int>(rng.range(2, 5));
            const auto odd = [k](int v) { return v % k == 0; };
            std::size_t erased = 0;
            for (auto it = ref.begin(); it != ref.end();) {
                it = odd(*it) ? (++erased, ref.erase(it)) : it + 1;
            }
            ASSERT_EQ(ring.eraseIf(odd), erased) << "op " << op;
        }
        ASSERT_EQ(ring.size(), ref.size()) << "op " << op;
        ASSERT_EQ(ring.empty(), ref.empty()) << "op " << op;
        for (std::size_t i = 0; i < ref.size(); ++i)
            ASSERT_EQ(ring[i], ref[i]) << "op " << op << " pos " << i;
    }
}

TEST(QueueDifferential, DelayQueueMatchesDeque)
{
    Simulator sim;
    Rng rng(2);
    constexpr Cycle latency = 3;
    DelayQueue<int> q(sim, latency);
    std::deque<std::pair<Cycle, int>> ref; // (ready cycle, value)
    int next = 0;
    for (int op = 0; op < diff_ops; ++op) {
        const Cycle now = sim.now();
        const std::uint64_t pick = rng.below(10);
        if (pick < 4) {
            // Push with the default latency or an explicit delay; the
            // wire stays in FIFO order, so never ready before the tail.
            const Cycle tail = ref.empty() ? 0 : ref.back().first;
            const Cycle floor = tail > now ? tail - now : 0;
            Cycle ready = now + latency;
            if (pick == 0 || ready < tail) {
                const Cycle delay = std::max(latency, floor) + rng.below(6);
                q.push(next, delay);
                ready = now + delay;
            } else {
                q.push(next);
            }
            ref.emplace_back(ready, next++);
        } else if (pick < 8) {
            if (!ref.empty() && ref.front().first <= now) {
                ASSERT_EQ(q.pop(), ref.front().second) << "op " << op;
                ref.pop_front();
            }
        } else {
            sim.run(1 + rng.below(ref.size() > 30 ? 12 : 2));
        }
        const bool ready = !ref.empty() && ref.front().first <= sim.now();
        ASSERT_EQ(q.ready(), ready) << "op " << op;
        ASSERT_EQ(q.size(), ref.size()) << "op " << op;
        ASSERT_EQ(q.empty(), ref.empty()) << "op " << op;
        if (!ref.empty()) {
            ASSERT_EQ(q.frontReadyAt(), ref.front().first) << "op " << op;
        }
        if (ready) {
            ASSERT_EQ(q.front(), ref.front().second) << "op " << op;
        }
    }
}

TEST(QueueDifferential, BoundedFifoMatchesDeque)
{
    Rng rng(3);
    for (int row = 0; row < 20; ++row) {
        const std::size_t cap = 1 + rng.below(48);
        BoundedFifo<int> f(cap);
        std::deque<int> ref;
        int next = 0;
        for (int op = 0; op < diff_ops / 20; ++op) {
            const std::uint64_t pick = rng.below(20);
            if (pick < 10) {
                const bool pushed = f.tryPush(next);
                ASSERT_EQ(pushed, ref.size() < cap) << "op " << op;
                if (pushed)
                    ref.push_back(next);
                ++next;
            } else if (pick < 19) {
                if (!ref.empty()) {
                    ASSERT_EQ(f.pop(), ref.front()) << "op " << op;
                    ref.pop_front();
                }
            } else {
                const int k = static_cast<int>(rng.range(2, 7));
                const auto hit = [k](int v) { return v % k == 1; };
                std::size_t erased = 0;
                for (auto it = ref.begin(); it != ref.end();)
                    it = hit(*it) ? (++erased, ref.erase(it)) : it + 1;
                ASSERT_EQ(f.eraseIf(hit), erased) << "op " << op;
            }
            ASSERT_EQ(f.size(), ref.size()) << "op " << op;
            ASSERT_EQ(f.empty(), ref.empty()) << "op " << op;
            ASSERT_EQ(f.full(), ref.size() >= cap) << "op " << op;
            if (!ref.empty()) {
                ASSERT_EQ(f.front(), ref.front()) << "op " << op;
            }
            ASSERT_EQ(std::deque<int>(f.begin(), f.end()), ref)
                << "op " << op;
        }
    }
}

TEST(QueueDifferential, CompletionBufferMatchesMultimap)
{
    Simulator sim;
    Rng rng(4);
    CompletionBuffer<int> b(sim);
    // A multimap pops equal keys in insertion order: the reference for
    // the (ready cycle, push order) contract.
    std::multimap<Cycle, int> ref;
    int next = 0;
    for (int op = 0; op < diff_ops; ++op) {
        const std::uint64_t pick = rng.below(10);
        if (pick < 4) {
            // Delays in a narrow window, so many entries tie.
            const Cycle delay = rng.chance(0.5) ? 1 + rng.below(3)
                                                : 20 + rng.below(4);
            if (rng.chance(0.5))
                b.pushIn(next, delay);
            else
                b.push(next, sim.now() + delay);
            ref.emplace(sim.now() + delay, next++);
        } else if (pick < 8) {
            if (!ref.empty() && ref.begin()->first <= sim.now()) {
                ASSERT_EQ(b.pop(), ref.begin()->second) << "op " << op;
                ref.erase(ref.begin());
            }
        } else {
            sim.run(1 + rng.below(ref.size() > 40 ? 8 : 2));
        }
        const bool ready = !ref.empty() && ref.begin()->first <= sim.now();
        ASSERT_EQ(b.ready(), ready) << "op " << op;
        ASSERT_EQ(b.size(), ref.size()) << "op " << op;
        ASSERT_EQ(b.empty(), ref.empty()) << "op " << op;
        if (!ref.empty()) {
            ASSERT_EQ(b.frontReadyAt(), ref.begin()->first) << "op " << op;
        }
        if (ready) {
            ASSERT_EQ(b.front(), ref.begin()->second) << "op " << op;
        }
    }
}

} // namespace
} // namespace skipit
