/**
 * @file
 * Ablation: hierarchy depth. §7.4 conjectures "a deeper cache hierarchy
 * (i.e. L3 or L4) could show greater improvements due to the increased
 * latencies" — a redundant writeback that Skip It kills in the L1 saves
 * a longer descent the deeper the hierarchy is. This bench runs the BST
 * automatic-persistence workload on the 2-level and 3-level machines and
 * reports Skip It's advantage over the plain policy in both.
 */

#include <cstdio>

#include "sim/random.hh"
#include "workloads/workloads.hh"

using namespace skipit;
using workloads::DsKind;

namespace {

workloads::ThroughputResult
run(FlushPolicy policy, bool with_l3)
{
    NvmConfig base;
    if (with_l3) {
        base.l3_sets = 4096; // 4 MiB L3
        base.l3_ways = 16;
    }
    MemSim mem(PersistCtx::machineFor(policy, base));
    PersistConfig pcfg;
    pcfg.policy = policy;
    pcfg.mode = PersistMode::Automatic;
    // Non-invalidating writebacks keep the data cached in both configs,
    // so the depth of the hierarchy only affects the writeback path —
    // the mechanism the paper's conjecture is about.
    pcfg.invalidating = false;
    PersistCtx ctx(mem, pcfg);
    auto set = workloads::makeSet(DsKind::Bst, ctx);

    Rng rng(7);
    for (int i = 0; i < 5120; ++i)
        set->insert(0, 1 + rng.below(10240));
    const Cycle start = mem.clock(0);
    std::uint64_t ops = 0;
    Rng wr(100);
    while (mem.clock(0) - start < 400'000) {
        const std::uint64_t key = 1 + wr.below(10240);
        if (wr.uniform() < 0.05) {
            if (wr.chance(0.5))
                set->insert(0, key);
            else
                set->remove(0, key);
        } else {
            set->contains(0, key);
        }
        ++ops;
    }
    workloads::ThroughputResult r;
    r.ops = ops;
    r.mops_per_mcycle = static_cast<double>(ops) * 1e6 /
                        static_cast<double>(mem.clock(0) - start);
    return r;
}

void
printTable()
{
    std::printf("=== Ablation: hierarchy depth (BST 10k, automatic, "
                "1 thread) ===\n");
    std::printf("%-12s%16s%16s%12s\n", "levels", "plain", "skip-it",
                "advantage");
    for (const bool l3 : {false, true}) {
        const auto plain = run(FlushPolicy::Plain, l3);
        const auto skip = run(FlushPolicy::SkipIt, l3);
        std::printf("%-12s%16.1f%16.1f%11.2fx\n",
                    l3 ? "L1+L2+L3" : "L1+L2", plain.mops_per_mcycle,
                    skip.mops_per_mcycle,
                    skip.mops_per_mcycle / plain.mops_per_mcycle);
    }
    std::printf("(paper §7.4: a deeper hierarchy widens Skip It's "
                "advantage)\n\n");
}

} // namespace

int
main()
{
    printTable();
    return 0;
}
