/**
 * @file
 * skipit-bench: run one workload for a fixed host-time budget, print its
 * end-to-end metrics (with --trace, its per-layer metrics instead), check
 * the simulated outputs, and end with one JSON line. README.md defines
 * every metric and workload.
 *
 *   skipit-bench --workload W [--seed N] [--seconds S] [--trace DIR]
 *   skipit-bench --list
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "profiler.hh"
#include "sim/stats.hh"
#include "suite.hh"

using namespace skipit;
using namespace skipit::benchsuite;

namespace {

struct MetricDef
{
    std::string name;
    std::string unit;
};

const std::vector<MetricDef> end_to_end = {
    {"host_s", "s"},
    {"host_ns_per_sim_cycle", "ns/cycle"},
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"sim_cycles", "cycles"},
    {"latency_p50_cycles", "cycles"},
    {"latency_p95_cycles", "cycles"},
};

const std::vector<std::string> tick_components = {
    "hart", "lsu", "l1", "xbar", "l2", "dram", "checker", "durability",
    "watchdog"};
const std::vector<std::string> self_modules = {
    "core",      "l1",        "tilelink",  "l2",     "dram",
    "sim.kernel", "sim.stats", "sim.probe", "verify", "kv",
    "workloads", "soc",       "other"};
const std::vector<std::string> traced_stages = {
    "lsu.window", "l1.mshr", "l1.flushq", "l1.fshr",   "l1.wbu",    "tl.a",
    "tl.c",       "tl.d",    "l2.mshr",   "dram.read", "dram.write"};
/** Counters a repetition reports in RepResult::values. */
const std::vector<std::string> layer_counters = {
    "l1.cbo_cleans", "l1.skip_drops", "l1.nacks", "l1.flushq_full",
    "l1.mshr_full", "lsu.retries", "l2.rootrelease.llc_skipped"};
const std::vector<std::string> setup_spans = {"inputs", "soc_build", "load"};

std::vector<MetricDef>
perLayer()
{
    std::vector<MetricDef> out = {{"host.samples", "count"}};
    for (const std::string &c : tick_components)
        out.push_back({"host.tick." + c + ".pct", "%"});
    out.push_back({"host.kernel.pct", "%"});
    out.push_back({"host.setup.pct", "%"});
    for (const std::string &m : self_modules)
        out.push_back({"host.self." + m + ".pct", "%"});
    for (const std::string &s : traced_stages) {
        out.push_back({"sim." + s + ".count", "count"});
        out.push_back({"sim." + s + ".p50_cycles", "cycles"});
        out.push_back({"sim." + s + ".p99_cycles", "cycles"});
    }
    for (const std::string &c : layer_counters)
        out.push_back({c, "count"});
    out.push_back({"l1.skip_drop_pct", "%"});
    out.push_back({"sim.ff_skip_pct", "%"});
    for (const std::string &s : setup_spans)
        out.push_back({"span." + s + "_s", "s"});
    out.push_back({"span.run_s", "s"});
    out.push_back({"trace_overhead_pct", "%"});
    return out;
}

/** Sampling rate of the traced run, per second of CPU time. */
constexpr unsigned sample_hz = 250;

/** Set-up is timed at least this many times, and more while it fits in
 *  the set-up budget, so that short set-ups get a steady median. */
constexpr std::size_t setup_min_passes = 5;
constexpr std::size_t setup_max_passes = 200;
constexpr double setup_budget_s = 0.5;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 25;
    std::string trace_dir; //!< empty: untraced run
    bool list = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "skipit-bench: " << why << "\n"
              << "usage: skipit-bench --workload W [--seed N] "
                 "[--seconds S] [--trace DIR]\n"
              << "       skipit-bench --list\n";
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list") {
            o.list = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string value = argv[++i];
        try {
            if (arg == "--workload")
                o.workload = value;
            else if (arg == "--seed")
                o.seed = std::stoull(value);
            else if (arg == "--seconds")
                o.seconds = std::stod(value);
            else if (arg == "--trace")
                o.trace_dir = value;
            else
                usage("unknown option " + arg);
        } catch (const std::logic_error &) {
            usage("bad value for " + arg + ": " + value);
        }
    }
    if (!o.list && o.workload.empty())
        usage("--workload is required");
    if (!(o.seconds >= 0))
        usage("--seconds must be >= 0");
    return o;
}

/** Quoted JSON string (names and messages here need no other escapes
 *  than quote and backslash). */
std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
number(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printList()
{
    const auto metrics = [](const std::vector<MetricDef> &defs) {
        std::string out = "[";
        for (std::size_t i = 0; i < defs.size(); ++i) {
            out += (i ? ", " : "") + std::string("{\"name\": ") +
                   quote(defs[i].name) + ", \"unit\": " +
                   quote(defs[i].unit) + "}";
        }
        return out + "]";
    };
    std::string workloads = "[";
    for (std::size_t i = 0; i < workloadNames().size(); ++i)
        workloads += (i ? ", " : "") + quote(workloadNames()[i]);
    std::cout << "{\"workloads\": " << workloads << "], \"end_to_end\": "
              << metrics(end_to_end) << ", \"per_layer\": "
              << metrics(perLayer()) << "}\n";
}

/** Every repetition of one phase, folded as it completes. */
struct Tally
{
    RepResult first; //!< the reference every later repetition must match
    std::size_t reps = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    error(const std::string &msg)
    {
        if (std::find(errors.begin(), errors.end(), msg) == errors.end())
            errors.push_back(msg);
    }

    void
    add(RepResult rep)
    {
        attempted += rep.units;
        failed += rep.failed;
        for (const std::string &e : rep.errors)
            error(e);
        if (reps == 0) {
            first = std::move(rep);
        } else if (!sameSimulation(first, rep)) {
            failed += rep.units - rep.failed;
            error("a repetition simulated differently from the first");
        }
        ++reps;
    }
};

/** Keeps calibrationLoop()'s work from being optimised away. */
volatile std::uint64_t calibration_sink = 0;

/**
 * A fixed amount of host work that uses no simulator code, only the kinds
 * of work the simulator's hot paths do (hash-map probes, string-keyed
 * ordered-map updates). Neighbours on a shared host slow it down much as
 * they slow the simulator. @return its wall time in seconds
 */
double
calibrationLoop()
{
    const double t0 = hostNow();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    const auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    std::unordered_map<std::uint64_t, std::uint64_t> table;
    for (std::uint64_t i = 0; i < 200000; ++i)
        table[next() % 400000] += i;
    std::uint64_t hits = 0;
    for (int i = 0; i < 1000000; ++i)
        hits += table.count(next() % 400000);
    std::map<std::string, std::uint64_t> counters;
    for (std::uint64_t i = 0; i < 200000; ++i)
        counters["l1." + std::to_string(i % 64) + ".nacks"] += i;
    calibration_sink = hits + counters.size();
    return hostNow() - t0;
}

/** calibrationLoop()'s median time on the baseline host (README.md). */
constexpr double reference_calibration_s = 0.068;

/** Calibration after a repetition lasts this share of the repetition. */
constexpr double calibration_share = 0.1;

Distribution
latencyOf(const RepResult &rep)
{
    Distribution d;
    for (const double lat : rep.latencies)
        d.add(lat);
    return d;
}

double
peakRssMib()
{
    rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
valueOr0(const std::map<std::string, double> &m, const std::string &key)
{
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
}

using Metrics = std::vector<std::pair<std::string, double>>;

/** What both kinds of run record. */
struct Run
{
    SpanLog setup_log;
    Distribution setup_s;
    SpanLog plain_log; //!< repetitions with no instrument attached
    Tally tally;       //!< every repetition; the first is a plain one
    Distribution raw_host_s;    //!< unscaled repetition times
    Distribution calibration_s; //!< every calibrationLoop() time
};

/** Time set-up passes: at least setup_min_passes, and more while they fit
 *  in setup_budget_s. */
void
setupPasses(Workload &wl, Run &run)
{
    const double start = hostNow();
    while (run.setup_s.count() < setup_min_passes ||
           (run.setup_s.count() < setup_max_passes &&
            hostNow() - start < setup_budget_s)) {
        const double t0 = hostNow();
        wl.setup(run.setup_log);
        run.setup_s.add(hostNow() - t0);
    }
}

/**
 * Set-up passes, then repetitions until the next one would overrun the
 * budget (always at least one), each followed by calibration loops for a
 * tenth of its time. Host times are scaled to the reference host's speed
 * by the median of all the run's calibration loops.
 */
Metrics
endToEndMetrics(Workload &wl, const Options &opt, Run &run)
{
    setupPasses(wl, run);
    double peak_rss = 0;
    const double start = hostNow();
    double last = 0;
    do {
        const double t0 = hostNow();
        run.tally.add(wl.run(run.plain_log, false));
        const double raw = hostNow() - t0;
        run.raw_host_s.add(raw);
        if (run.calibration_s.empty())
            peak_rss = peakRssMib(); // before calibrationLoop() allocates
        do {
            run.calibration_s.add(calibrationLoop());
        } while (hostNow() - t0 - raw < calibration_share * raw);
        last = hostNow() - t0;
    } while (hostNow() - start + last <= opt.seconds);

    const double speed = reference_calibration_s / run.calibration_s.median();
    const double host_s = run.raw_host_s.median() * speed;
    const RepResult &ref = run.tally.first;
    const Distribution latency = latencyOf(ref);
    return {
        {"host_s", host_s},
        {"host_ns_per_sim_cycle",
         host_s * 1e9 / static_cast<double>(ref.cycles)},
        {"setup_s", run.setup_s.median() * speed},
        {"peak_rss_mib", peak_rss},
        {"sim_cycles", static_cast<double>(ref.cycles)},
        {"latency_p50_cycles", latency.percentile(50)},
        {"latency_p95_cycles", latency.percentile(95)},
    };
}

/**
 * The traced run: a plain repetition (the reference), one with the stage
 * tracer attached, then sampled and plain repetitions in turn for the rest
 * of the budget, so that the sampler's overhead is measured against plain
 * repetitions run at nearly the same time. The tracer and the sampler run
 * apart so that the host shares are not the tracer's cost. Writes the
 * layer files into the trace directory.
 */
Metrics
layerMetrics(Workload &wl, const Options &opt, Run &run)
{
    std::filesystem::create_directories(opt.trace_dir);
    setupPasses(wl, run);
    const double start = hostNow();
    run.tally.add(wl.run(run.plain_log, false));
    SpanLog stage_log;
    RepResult staged = wl.run(stage_log, true);
    const auto stages = std::move(staged.stages);
    run.tally.add(std::move(staged));

    SpanLog sampled_log;
    profiler::reset(
        static_cast<std::size_t>(opt.seconds * sample_hz * 1.2) + 1024);
    double pair = 0;
    do {
        const double t0 = hostNow();
        profiler::resume(sample_hz);
        run.tally.add(wl.run(sampled_log, false));
        profiler::pause();
        run.tally.add(wl.run(run.plain_log, false));
        pair = hostNow() - t0;
    } while (hostNow() - start + pair <= opt.seconds);
    const profiler::Attribution prof = profiler::attribute(opt.trace_dir);

    double shares = 0;
    for (const auto &[bucket, pct] : prof.tick)
        shares += pct;
    if (prof.samples == 0 || std::abs(shares - 100.0) > 1.0) {
        run.tally.failed += 1;
        run.tally.error("tick shares sum to " + std::to_string(shares) +
                        " % over " + std::to_string(prof.samples) +
                        " samples");
    }

    const RepResult &ref = run.tally.first;
    const double host_s = run.plain_log.median("run");
    Metrics metrics = {{"host.samples", static_cast<double>(prof.samples)}};
    for (const std::string &c : tick_components)
        metrics.push_back({"host.tick." + c + ".pct", valueOr0(prof.tick, c)});
    metrics.push_back({"host.kernel.pct", valueOr0(prof.tick, "kernel")});
    metrics.push_back({"host.setup.pct", valueOr0(prof.tick, "setup")});
    for (const std::string &mod : self_modules)
        metrics.push_back(
            {"host.self." + mod + ".pct", valueOr0(prof.self, mod)});
    for (const std::string &s : traced_stages) {
        const auto it = stages.find(s);
        const Histogram *h = it == stages.end() ? nullptr : &it->second;
        const bool any = h != nullptr && !h->empty();
        metrics.push_back(
            {"sim." + s + ".count", any ? double(h->count()) : 0.0});
        metrics.push_back(
            {"sim." + s + ".p50_cycles", any ? h->percentile(50) : 0.0});
        metrics.push_back(
            {"sim." + s + ".p99_cycles", any ? h->percentile(99) : 0.0});
    }
    for (const std::string &c : layer_counters)
        metrics.push_back({c, valueOr0(ref.values, c)});
    const double cleans = valueOr0(ref.values, "l1.cbo_cleans");
    metrics.push_back(
        {"l1.skip_drop_pct",
         cleans == 0 ? 0.0
                     : 100.0 * valueOr0(ref.values, "l1.skip_drops") / cleans});
    metrics.push_back(
        {"sim.ff_skip_pct", valueOr0(ref.values, "sim.ff_skip_pct")});
    for (const std::string &s : setup_spans)
        metrics.push_back({"span." + s + "_s", run.setup_log.median(s)});
    metrics.push_back({"span.run_s", host_s});
    metrics.push_back({"trace_overhead_pct",
                       100.0 * (sampled_log.median("run") / host_s - 1.0)});

    const std::string stem = opt.trace_dir + "/" + opt.workload;
    std::ofstream layers(stem + ".layers.json");
    layers << "{\"workload\": " << quote(opt.workload)
           << ", \"seed\": " << opt.seed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        layers << (i ? ", " : "") << quote(metrics[i].first) << ": "
               << number(metrics[i].second);
    }
    layers << "}}\n";
    std::ofstream chrome(stem + ".trace.json");
    writeChromeTrace(chrome, {{"set-up", &run.setup_log},
                              {"plain", &run.plain_log},
                              {"stage-traced", &stage_log},
                              {"sampled", &sampled_log}});
    return metrics;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    if (opt.list) {
        printList();
        return 0;
    }
    const bool traced = !opt.trace_dir.empty();

    try {
        const auto wl = makeWorkload(opt.workload, opt.seed);
        Run run;
        const Metrics metrics = traced ? layerMetrics(*wl, opt, run)
                                       : endToEndMetrics(*wl, opt, run);
        const std::vector<MetricDef> defs = traced ? perLayer() : end_to_end;
        if (!std::equal(defs.begin(), defs.end(), metrics.begin(),
                        metrics.end(), [](const auto &d, const auto &m) {
                            return d.name == m.first;
                        }))
            throw std::logic_error("metrics out of step with --list");

        const RepResult &ref = run.tally.first;
        std::printf("skipit-bench: %s, seed %llu, %zu repetitions, %zu "
                    "set-up passes\n",
                    opt.workload.c_str(),
                    static_cast<unsigned long long>(opt.seed), run.tally.reps,
                    run.setup_s.count());
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            std::printf("  %-32s %14.6g %s\n", metrics[i].first.c_str(),
                        metrics[i].second, defs[i].unit.c_str());
        }
        const Distribution latency = latencyOf(ref);
        std::printf("  (latency over %zu samples; p99 %.6g cycles with %zu "
                    "beyond)\n",
                    latency.count(), latency.percentile(99),
                    latency.count() / 100);
        if (traced) {
            std::printf("  wrote %s/%s.layers.json and %s.trace.json\n",
                        opt.trace_dir.c_str(), opt.workload.c_str(),
                        opt.workload.c_str());
        }
        if (!run.raw_host_s.empty()) {
            std::printf("  (unscaled host_s %.6g s over %zu repetitions; "
                        "calibration loop %.6g s over %zu loops, %.6g s on "
                        "the reference host)\n",
                        run.raw_host_s.median(), run.raw_host_s.count(),
                        run.calibration_s.median(), run.calibration_s.count(),
                        reference_calibration_s);
        }
        // Deterministic results outside the metric set, for the reader.
        for (const auto &[name, value] : ref.values)
            std::printf("  %-32s %14.6g\n", name.c_str(), value);

        for (const std::string &e : run.tally.errors)
            std::fprintf(stderr, "skipit-bench: check failed: %s\n",
                         e.c_str());
        const bool correct =
            run.tally.failed == 0 && run.tally.errors.empty();
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                    "%llu, \"metrics\": {",
                    correct ? "true" : "false",
                    static_cast<unsigned long long>(run.tally.attempted),
                    static_cast<unsigned long long>(run.tally.failed));
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            std::printf("%s%s: {\"value\": %s, \"unit\": %s}", i ? ", " : "",
                        quote(metrics[i].first).c_str(),
                        number(metrics[i].second).c_str(),
                        quote(defs[i].unit).c_str());
        }
        std::printf("}}\n");
        return correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "skipit-bench: %s\n", e.what());
        return 2;
    }
}
