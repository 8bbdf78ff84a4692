/**
 * @file
 * Extension bench: persistent Michael-Scott queue throughput across the
 * flush-avoidance schemes (the second structure family FliT evaluates,
 * beyond the paper's four sets). Expected shape: same ordering as the
 * sets — Skip It at or near the top without any software bookkeeping,
 * plain far behind in read-heavy modes.
 */

#include <cstdio>
#include <thread>
#include <vector>

#include "ds/ms_queue.hh"
#include "sim/random.hh"

using namespace skipit;

namespace {

double
run(FlushPolicy policy, PersistMode mode)
{
    MemSim mem(PersistCtx::machineFor(policy));
    PersistConfig pcfg;
    pcfg.policy = policy;
    pcfg.mode = mode;
    PersistCtx ctx(mem, pcfg);
    MsQueue q(ctx);
    for (int i = 0; i < 256; ++i)
        q.enqueue(0, static_cast<std::uint64_t>(i + 1));

    constexpr unsigned threads = 2;
    constexpr Cycle budget = 300'000;
    std::vector<std::uint64_t> ops(threads, 0);
    const Cycle base0 = mem.clock(0);
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            Rng rng(3 + t);
            const Cycle base = t == 0 ? base0 : mem.clock(t);
            while (mem.clock(t) - base < budget) {
                if (rng.chance(0.5)) {
                    q.enqueue(t, 1 + (rng.next() >> 3));
                } else {
                    std::uint64_t out = 0;
                    q.dequeue(t, out);
                }
                ++ops[t];
            }
        });
    }
    for (auto &w : workers)
        w.join();
    std::uint64_t total = 0;
    Cycle max_clock = 0;
    for (unsigned t = 0; t < threads; ++t) {
        total += ops[t];
        const Cycle c = t == 0 ? mem.clock(0) - base0 : mem.clock(t);
        max_clock = std::max(max_clock, c);
    }
    return static_cast<double>(total) * 1e6 /
           static_cast<double>(std::max<Cycle>(max_clock, 1));
}

constexpr FlushPolicy policies[] = {
    FlushPolicy::Plain, FlushPolicy::FlitAdjacent,
    FlushPolicy::FlitHashTable, FlushPolicy::LinkAndPersist,
    FlushPolicy::SkipIt};
constexpr PersistMode modes[] = {PersistMode::Automatic,
                                 PersistMode::NvTraverse,
                                 PersistMode::Manual};

void
printTable()
{
    std::printf("=== Extension: persistent MS-queue throughput "
                "(ops per Mcycle), 2 threads ===\n");
    std::printf("%-12s", "mode");
    for (const FlushPolicy p : policies)
        std::printf("%18s", toString(p));
    std::printf("\n");
    for (const PersistMode m : modes) {
        std::printf("%-12s", toString(m));
        for (const FlushPolicy p : policies)
            std::printf("%18.1f", run(p, m));
        std::printf("\n");
    }
    std::printf("\n");
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
