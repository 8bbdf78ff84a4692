#include "workloads.hh"

#include <thread>
#include <vector>

#include "ds/bst.hh"
#include "ds/hash_table.hh"
#include "ds/linked_list.hh"
#include "ds/skiplist.hh"
#include "sim/random.hh"

namespace skipit::workloads {

Program
dirtyRegion(Addr base, unsigned lines)
{
    Program p;
    for (unsigned i = 0; i < lines; ++i)
        p.push_back(MemOp::store(base + static_cast<Addr>(i) * line_bytes,
                                 i + 1));
    p.push_back(MemOp::fence());
    return p;
}

Program
writebackRegion(Addr base, unsigned lines, bool flush, unsigned passes)
{
    Program p;
    for (unsigned pass = 0; pass < passes; ++pass) {
        for (unsigned i = 0; i < lines; ++i) {
            const Addr a = base + static_cast<Addr>(i) * line_bytes;
            p.push_back(flush ? MemOp::flush(a) : MemOp::clean(a));
        }
    }
    p.push_back(MemOp::fence());
    return p;
}

namespace {

/**
 * The skeleton the three cycle-model measurements share: on a machine
 * of @p cores (0 = one per thread), each of @p threads dirties its own
 * share of @p bytes, the memory system settles, then the programs
 * @p measure(base, lines) builds run and are timed.
 * @return cycles of the measured phase
 */
template <typename Measure>
Cycle
timeRegions(const SoCConfig &cfg, unsigned threads, std::size_t bytes,
            unsigned cores, Measure measure)
{
    SoCConfig c = cfg;
    c.cores = cores ? cores : threads;
    SKIPIT_ASSERT(threads <= c.cores, "more threads than cores");
    SoC soc(c);
    const unsigned lines_total =
        static_cast<unsigned>(bytes / line_bytes);
    const unsigned per = std::max(1u, lines_total / threads);

    std::vector<Program> warm, meas;
    for (unsigned t = 0; t < threads; ++t) {
        const Addr base = region_base + t * thread_stride;
        warm.push_back(dirtyRegion(base, per));
        meas.push_back(measure(base, per));
    }
    soc.setPrograms(warm);
    soc.runToQuiescence();
    soc.setPrograms(meas);
    return soc.runToCompletion();
}

} // namespace

Cycle
cboLatency(const SoCConfig &cfg, unsigned threads, std::size_t bytes,
           bool flush, unsigned cores)
{
    const auto measure = [&](Addr base, unsigned lines) {
        return writebackRegion(base, lines, flush);
    };
    return timeRegions(cfg, threads, bytes, cores, measure);
}

Cycle
writeWbReadLatency(const SoCConfig &cfg, unsigned threads,
                   std::size_t bytes, bool flush, unsigned cores)
{
    const auto measure = [&](Addr base, unsigned lines) {
        Program p;
        for (unsigned i = 0; i < lines; ++i) {
            const Addr a = base + static_cast<Addr>(i) * line_bytes;
            p.push_back(MemOp::store(a, i + 7));
            for (int r = 0; r < 10; ++r)
                p.push_back(flush ? MemOp::flush(a) : MemOp::clean(a));
            p.push_back(MemOp::fence());
            p.push_back(MemOp::load(a));
        }
        return p;
    };
    return timeRegions(cfg, threads, bytes, cores, measure);
}

Cycle
redundantWbLatency(const SoCConfig &cfg, unsigned threads,
                   std::size_t bytes, bool flush, unsigned cores)
{
    const auto measure = [&](Addr base, unsigned lines) {
        // One store pass, one real writeback pass, ten redundant ones.
        Program p = dirtyRegion(base, lines);
        const Program wb = writebackRegion(base, lines, flush, 1 + 10);
        p.insert(p.end(), wb.begin(), wb.end());
        return p;
    };
    return timeRegions(cfg, threads, bytes, cores, measure);
}

const char *
name(DsKind k)
{
    switch (k) {
      case DsKind::List:
        return "linked-list";
      case DsKind::HashTable:
        return "hash-table";
      case DsKind::Bst:
        return "bst";
      default:
        return "skiplist";
    }
}

std::uint64_t
keyRange(DsKind k)
{
    switch (k) {
      case DsKind::List:
        return 128;
      case DsKind::HashTable:
        return 1024;
      case DsKind::Bst:
        return 10240; // "BST (10k keys)" (Fig 16)
      default:
        return 1024;
    }
}

std::unique_ptr<PersistentSet>
makeSet(DsKind k, PersistCtx &ctx)
{
    switch (k) {
      case DsKind::List:
        return std::make_unique<LinkedList>(ctx);
      case DsKind::HashTable:
        return std::make_unique<HashTable>(ctx, 1024);
      case DsKind::Bst:
        return std::make_unique<Bst>(ctx);
      default:
        return std::make_unique<SkipList>(ctx);
    }
}

bool
applicable(DsKind k, FlushPolicy p)
{
    return !(k == DsKind::Bst && p == FlushPolicy::LinkAndPersist);
}

ThroughputResult
runThroughput(DsKind kind, FlushPolicy policy, PersistMode mode,
              double update_pct, unsigned threads, Cycle budget,
              std::size_t flit_entries, std::uint64_t seed)
{
    // Each seed shifts every stream by a large odd constant so streams
    // from different seeds never collide; seed 0 keeps the historical
    // Rng(7) / Rng(100 + t) values exactly.
    const std::uint64_t seed_base = seed * 0x9e3779b97f4a7c15ULL;
    MemSim mem(PersistCtx::machineFor(policy));
    PersistConfig pcfg;
    pcfg.policy = policy;
    pcfg.mode = mode;
    pcfg.flit_table_entries = flit_entries;
    PersistCtx ctx(mem, pcfg);
    auto set = makeSet(kind, ctx);

    // Prefill to ~50% occupancy; thread 0's clock is re-based afterwards
    // so setup cost is excluded from the measurement.
    const std::uint64_t range = keyRange(kind);
    {
        Rng rng(7 + seed_base);
        for (std::uint64_t i = 0; i < range / 2; ++i)
            set->insert(0, 1 + rng.below(range));
    }
    const Cycle start0 = mem.clock(0);

    std::vector<std::uint64_t> ops(threads, 0);
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            Rng rng(100 + seed_base + t);
            const Cycle base = mem.clock(t);
            while (mem.clock(t) - base < budget) {
                const std::uint64_t key = 1 + rng.below(range);
                if (rng.uniform() * 100.0 < update_pct) {
                    if (rng.chance(0.5))
                        set->insert(t, key);
                    else
                        set->remove(t, key);
                } else {
                    set->contains(t, key);
                }
                ++ops[t];
            }
        });
    }
    for (auto &w : workers)
        w.join();

    std::uint64_t total_ops = 0;
    Cycle max_clock = 0;
    for (unsigned t = 0; t < threads; ++t) {
        total_ops += ops[t];
        const Cycle c = t == 0 ? mem.clock(0) - start0 : mem.clock(t);
        max_clock = std::max(max_clock, c);
    }

    ThroughputResult r;
    r.ops = total_ops;
    r.mops_per_mcycle =
        static_cast<double>(total_ops) * 1e6 /
        static_cast<double>(std::max<Cycle>(max_clock, 1));
    r.flushes = mem.flushesIssued();
    r.skipped_l1 = mem.flushesSkippedL1();
    return r;
}

} // namespace skipit::workloads
