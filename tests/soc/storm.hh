/**
 * @file
 * The eviction-storm machine and programs shared by the live-set pins
 * (tests/soc/test_live_set.cc) and the change-log oracle
 * (tests/verify/test_checker_incremental.cc).
 */

#ifndef SKIPIT_TESTS_SOC_STORM_HH
#define SKIPIT_TESTS_SOC_STORM_HH

#include <vector>

#include "sim/random.hh"
#include "soc/soc.hh"

namespace skipit {

/**
 * A small, crowded machine: an L2 of 32 sets with 4 MSHRs per slice and
 * L1s of 8 sets with 2 MSHRs, 2 FSHRs and a 2-deep flush queue, so L1
 * evictions, L2 victim writebacks, parked MSHRs, ListBuffer retries and
 * A-channel back-pressure all occur.
 */
inline SoCConfig
stormConfig(unsigned harts, unsigned slices)
{
    SoCConfig cfg;
    cfg.cores = harts;
    cfg.l1.sets = 8;
    cfg.l1.mshrs = 2;
    cfg.l1.fshrs = 2;
    cfg.l1.flush_queue_depth = 2;
    cfg.l2.sets = 32;
    cfg.l2.mshrs = 4;
    cfg.l2.slices = slices;
    return cfg;
}

/**
 * Per hart: @p ops seeded 8-byte loads and stores, CBO.CLEAN and
 * CBO.FLUSH over 96 private lines and 16 lines every hart shares, with a
 * fence every 24 to 47 ops and one at the end.
 */
inline std::vector<Program>
stormPrograms(unsigned harts, unsigned ops)
{
    constexpr Addr shared_base = 0x80000;
    constexpr unsigned shared_lines = 16;
    constexpr unsigned private_lines = 96;
    Rng rng(15);
    std::vector<Program> programs(harts);
    for (unsigned h = 0; h < harts; ++h) {
        Program &p = programs[h];
        const Addr private_base = 0x1000000 + Addr{h} * 0x10000;
        unsigned next_fence = 24 + static_cast<unsigned>(rng.below(24));
        for (unsigned n = 0; n < ops; ++n) {
            const Addr line =
                rng.below(10) < 7
                    ? private_base + rng.below(private_lines) * line_bytes
                    : shared_base + rng.below(shared_lines) * line_bytes;
            const Addr word = line + rng.below(line_bytes / 8) * 8;
            switch (rng.below(8)) {
              case 0:
              case 1:
              case 2:
                p.push_back(MemOp::load(word));
                break;
              case 3:
              case 4:
              case 5:
                p.push_back(MemOp::store(word, rng.next()));
                break;
              case 6:
                p.push_back(MemOp::clean(line));
                break;
              default:
                p.push_back(MemOp::flush(line));
                break;
            }
            if (n == next_fence) {
                p.push_back(MemOp::fence());
                next_fence += 24 + static_cast<unsigned>(rng.below(24));
            }
        }
        p.push_back(MemOp::fence());
    }
    return programs;
}

} // namespace skipit

#endif // SKIPIT_TESTS_SOC_STORM_HH
