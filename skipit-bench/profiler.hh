/**
 * @file
 * A SIGPROF stack sampler and the attribution of its samples to the
 * simulator's modules. The process must be single-threaded while the
 * sampler is armed (the benchmark runs the serial engine and -j1 sweeps).
 */

#ifndef SKIPIT_BENCH_PROFILER_HH
#define SKIPIT_BENCH_PROFILER_HH

#include <cstddef>
#include <map>
#include <string>

namespace skipit::benchsuite::profiler {

/** Make room for @p capacity samples and forget earlier ones. */
void reset(std::size_t capacity);

/** Record the stack every 1/@p hz of CPU time until pause(); samples
 *  beyond the capacity are dropped. */
void resume(unsigned hz);

/** Stop sampling and restore the previous SIGPROF disposition. */
void pause();

/** Host-time shares, in percent of all samples taken. */
struct Attribution
{
    std::size_t samples = 0;
    /** Tick owner: the first repository frame called from the kernel
     *  (hart, lsu, l1, xbar, l2, dram, checker, durability, watchdog),
     *  "kernel" when the kernel calls no repository code, and "setup"
     *  when the sample has no kernel frame at all. */
    std::map<std::string, double> tick;
    /** Innermost repository frame, by source module (core, l1, tilelink,
     *  l2, dram, sim.kernel, sim.stats, sim.probe, verify, kv, workloads,
     *  soc, and "other" for the rest). */
    std::map<std::string, double> self;
};

/**
 * Symbolize the samples taken since reset() with addr2line (inlined
 * frames included) and attribute each one by the source file of its
 * frames. @p work_dir holds the symbolizer's input and output.
 * @throws std::runtime_error when addr2line cannot be run
 */
Attribution attribute(const std::string &work_dir);

} // namespace skipit::benchsuite::profiler

#endif // SKIPIT_BENCH_PROFILER_HH
