/**
 * @file
 * The request path allocates nothing once warm.
 *
 * This binary replaces the global operator new with a counting one. A
 * 4-hart machine with the coherence checker and the stall watchdog on
 * runs a program of stores, loads of the neighbour's lines, alternating
 * CBO.CLEAN and CBO.FLUSH, fences and RDCYCLE markers. Its lines share
 * one L1 set, so the L1s evict and write back through their writeback
 * units, and the L2 probes, grants dirty data and buffers RootReleases.
 *
 * Queues grow to their high-water mark and keep it, so a run can only
 * allocate where it goes past an earlier run's peak. The first run
 * starts cold and the second from the state the first leaves; from then
 * on every run repeats the second's schedule (the test checks that it
 * takes the same cycles). The third run, through runToCompletion() and
 * runToQuiescence(), must make no heap allocation at all: every queue
 * reuses its ring, the completion buffers their flat storage, each MSHR
 * its replay queue, the L2 its probe-target mask, the watchdog its
 * tracked slots and each hart the marker slots setProgram() sized.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "soc/soc.hh"

namespace {

bool counting = false;
std::size_t allocations = 0;

void *
countedAlloc(std::size_t n, std::size_t align = 0)
{
    if (counting)
        ++allocations;
    if (n == 0)
        n = 1;
    void *p = align > alignof(std::max_align_t)
                  ? std::aligned_alloc(align, (n + align - 1) / align * align)
                  : std::malloc(n);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace skipit {
namespace {

constexpr unsigned harts = 4;
constexpr unsigned lines = 96;

/**
 * Per hart, over @ref lines lines 4 KiB apart (one L1 set): store to the
 * line, load the next hart's copy of it, then CBO.CLEAN (even lines) or
 * CBO.FLUSH (odd lines) it, with a fence and an RDCYCLE marker every 8
 * lines.
 */
std::vector<Program>
programs()
{
    const auto line = [](unsigned h, unsigned i) {
        return Addr{0x100000} + Addr{h} * line_bytes + Addr{i} * 0x1000;
    };
    std::vector<Program> out(harts);
    for (unsigned h = 0; h < harts; ++h) {
        Program &p = out[h];
        p.push_back(MemOp::marker(lines)); // latches with the LSU empty
        for (unsigned i = 0; i < lines; ++i) {
            const Addr mine = line(h, i);
            p.push_back(MemOp::store(mine, h * 1000 + i));
            p.push_back(MemOp::load(line((h + 1) % harts, i)));
            p.push_back(i % 2 == 0 ? MemOp::clean(mine)
                                   : MemOp::flush(mine));
            if (i % 8 == 7) {
                p.push_back(MemOp::fence());
                p.push_back(MemOp::marker(i / 8));
            }
        }
    }
    return out;
}

/** Run @p p on @p soc to quiescence. @return the cycles it took */
Cycle
runOnce(SoC &soc, const std::vector<Program> &p)
{
    soc.setPrograms(p);
    const Cycle start = soc.sim().now();
    soc.runToCompletion();
    soc.runToQuiescence();
    return soc.sim().now() - start;
}

/** Heap allocations made by the third, warm run on @p slices slices. */
std::size_t
warmRunAllocations(unsigned slices)
{
    SoCConfig cfg;
    cfg.cores = harts;
    cfg.l2.slices = slices;
    SoC soc(cfg);
    const std::vector<Program> p = programs();

    runOnce(soc, p);
    const Cycle warm = runOnce(soc, p);

    soc.setPrograms(p);
    const Cycle start = soc.sim().now();
    allocations = 0;
    counting = true;
    soc.runToCompletion();
    soc.runToQuiescence();
    counting = false;
    EXPECT_EQ(soc.sim().now() - start, warm)
        << "the counted run does not repeat the warm run's schedule";
    EXPECT_TRUE(soc.checker().clean());
    EXPECT_EQ(soc.watchdog().stallsDetected(), 0u);
    return allocations;
}

TEST(NoAlloc, CounterSeesAnAllocation)
{
    // The vector escapes through a volatile, so neither allocation (the
    // object and its buffer) can be elided.
    static std::vector<int> *volatile sink = nullptr;
    allocations = 0;
    counting = true;
    sink = new std::vector<int>(16);
    counting = false;
    delete sink;
    EXPECT_EQ(allocations, 2u);
}

TEST(NoAlloc, WarmRunAllocatesNothingOnOneSlice)
{
    EXPECT_EQ(warmRunAllocations(1), 0u);
}

TEST(NoAlloc, WarmRunAllocatesNothingOnTwoSlices)
{
    EXPECT_EQ(warmRunAllocations(2), 0u);
}

} // namespace
} // namespace skipit
