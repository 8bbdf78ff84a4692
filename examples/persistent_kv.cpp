/**
 * @file
 * NVMM scenario (paper §1, §7.4): a crash-consistent key-value store
 * served through the full simulated hierarchy (LSU→L1→TileLink→L2→DRAM),
 * with and without the skip bit.
 *
 * The store (src/kv) is ListDB-shaped: a persistent skiplist index over
 * an append-only value log, committed with CBO.CLEAN + FENCE epochs.
 * Every checkpoint_every operations it conservatively re-cleans
 * everything dirtied since the last checkpoint — software cannot know
 * which of those lines already reached the persist domain, so it must
 * flush them all. That redundant bookkeeping is exactly what Skip It
 * eliminates: with the skip bit on, the L1 metadata check kills the
 * already-clean writebacks instead of a round trip to memory (paper §6).
 *
 * Run time is dominated by simulated cycles, not wall clock.
 */

#include <cstdio>

#include "workloads/ycsb.hh"

using namespace skipit;
using namespace skipit::workloads;

int
main()
{
    KvSpec spec{.mix = "A", // YCSB-A: 50% reads, 50% updates
                .keys = 256,
                .ops = 256,
                .cores = 2,
                .seed = 7};

    std::printf("persistent KV store (skiplist + value log, mix %s, "
                "%u harts, %llu ops/hart)\n",
                spec.mix.c_str(), spec.cores,
                static_cast<unsigned long long>(spec.ops));
    std::printf("%-10s%14s%14s%12s%12s%12s\n", "skip-it", "cycles",
                "ops/kcycle", "p99", "cleans", "drops");

    KvRunResult on, off;
    for (const bool skip : {false, true}) {
        spec.skipit = skip;
        const KvRunResult r = runKv(spec);
        std::printf("%-10s%14llu%14.2f%12.0f%12llu%12llu\n",
                    skip ? "on" : "off",
                    static_cast<unsigned long long>(r.cycles),
                    r.ops_per_kcycle, r.latency.percentile(99.0),
                    static_cast<unsigned long long>(r.cbo_cleans),
                    static_cast<unsigned long long>(r.skip_drops));
        (skip ? on : off) = r;
    }

    const double saved = 100.0 * static_cast<double>(off.cycles - on.cycles) /
                         static_cast<double>(off.cycles);
    std::printf("\nskip-it dropped %llu of %llu checkpoint cleans in the "
                "L1 metadata check,\nserving the same operations in "
                "%.1f%% fewer cycles with no software bookkeeping "
                "(paper §6).\n",
                static_cast<unsigned long long>(on.skip_drops),
                static_cast<unsigned long long>(on.cbo_cleans),
                saved);
    return on.skip_drops > 0 && on.cycles <= off.cycles ? 0 : 1;
}
