/**
 * @file
 * The benchmark's workloads. Each one builds its inputs from a seed and
 * drives the simulator only through its public API (runKv, runSweep, SoC,
 * KvStore, the probe hub, TxnTracer and Stats).
 */

#ifndef SKIPIT_BENCH_SUITE_HH
#define SKIPIT_BENCH_SUITE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/histogram.hh"
#include "sim/types.hh"

namespace skipit::benchsuite {

/** Host seconds since the process started (steady clock). */
double hostNow();

/** Host-side spans the benchmark records around each public call. */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double start_s;
        double dur_s;
    };

    /** Run @p f inside a span called @p name; returns what @p f returns. */
    template <typename F>
    auto
    time(const std::string &name, F &&f)
    {
        const double t0 = hostNow();
        if constexpr (std::is_void_v<decltype(f())>) {
            f();
            spans_.push_back({name, t0, hostNow() - t0});
        } else {
            auto result = f();
            spans_.push_back({name, t0, hostNow() - t0});
            return result;
        }
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Median duration of the spans called @p name (0 when none). */
    double median(const std::string &name) const;

  private:
    std::vector<Span> spans_;
};

/** Chrome trace-event JSON of several span logs, one track per log. */
void writeChromeTrace(
    std::ostream &os,
    const std::vector<std::pair<std::string, const SpanLog *>> &tracks);

/** What one repetition of a workload simulated. */
struct RepResult
{
    Cycle cycles = 0;                //!< simulated cycles (summed for grids)
    std::vector<double> latencies;   //!< per-unit latency, cycles
    std::uint64_t units = 0;         //!< units attempted (ops, harts, points)
    std::uint64_t failed = 0;        //!< units that failed or did not finish
    std::vector<std::string> errors; //!< failed output checks
    /** Deterministic simulated results beyond latency (counters, paper
     *  figures); compared exactly between repetitions. */
    std::map<std::string, double> values;
    /** Stage-latency histograms; only filled by traced repetitions. */
    std::map<std::string, Histogram> stages;
};

/** True when two repetitions simulated exactly the same thing. */
bool sameSimulation(const RepResult &a, const RepResult &b);

/** One workload of the benchmark; see README.md for why each exists. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the inputs and the machine, then discard them: the set-up a
     *  repetition pays before its first simulated cycle. Records the
     *  spans "inputs", "soc_build" and, where there is initial state to
     *  load, "load". */
    virtual void setup(SpanLog &spans) = 0;

    /** One full repetition, recorded as the span "run". @p traced
     *  attaches the stage tracer. */
    virtual RepResult run(SpanLog &spans, bool traced) = 0;
};

/** The workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/** @throws std::runtime_error on an unknown name */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

} // namespace skipit::benchsuite

#endif // SKIPIT_BENCH_SUITE_HH
