/**
 * @file
 * skipit-kv: the served persistent-KV benchmark (YCSB-style open-loop
 * traffic over the durable KV store, through the full simulated memory
 * hierarchy).
 *
 * Two modes:
 *
 *  - Bench grid (default): serve every (mix, cores) point with the skip
 *    bit on AND off, print a summary table, and write machine-readable
 *    BENCH_kv.json (-o FILE, schema "skipit-kv-bench-v1").
 *
 *  - Crash audit (--crash N): one run that loses power at cycle N; the
 *    durability oracle plus a KV recovery walk over the frozen
 *    persist-domain image decide the exit status.
 *
 * Options:
 *
 *   --mixes M[,M]    workload mixes, letters A-E (default A,B,C)
 *   --cores N[,N]    core counts to sweep (default 1,2)
 *   --keys N         prefilled keys per hart (default 1024)
 *   --ops N          operations per hart (default 4096)
 *   --slices N       L2 slices (default 1)
 *   --set NAME=VALUE set a machine field (repeatable; not l2_slices,
 *                    skipit or grant_data_dirty, which the grid sets)
 *   --distribution D zipfian (default) or uniform
 *   --theta T        zipfian skew in (0,1) (default 0.99)
 *   --value-bytes N  payload size (default 64)
 *   --period N       open-loop inter-arrival cycles; 0 = closed loop
 *   --scan-len N     max scan length for mix E (default 16)
 *   --checkpoint N   ops between store epoch checkpoints (conservative
 *                    re-flush of the dirtied working set; 0 = never,
 *                    default 16)
 *   --seed N         base RNG seed (default 1)
 *   --spec FILE      read the grid from a JSON spec (see
 *                    bench/sweeps/kv.json); CLI flags override it
 *   -o FILE          write BENCH_kv.json here (default BENCH_kv.json;
 *                    "-" = stdout only); exits 1, before any run, if
 *                    FILE cannot be opened
 *   --crash N        crash-audit mode: power fails at cycle N
 *   --no-skipit      (crash mode) audit with the skip bit off
 *   --stages         attach the transaction tracer and print per-stage
 *                    latency histograms for the first grid point
 *
 * Examples:
 *
 *   skipit-kv --mixes A,B,C --cores 1,2 -o BENCH_kv.json
 *   skipit-kv --spec bench/sweeps/kv.json
 *   skipit-kv --mixes A --cores 2 --ops 400 --crash 20000
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "parse_number.hh"
#include "workloads/ycsb.hh"

using namespace skipit;
using namespace skipit::workloads;

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: skipit-kv [--mixes A,B,C] [--cores 1,2] [--keys N] "
        "[--ops N]\n"
        "                 [--slices N] [--set NAME=VALUE]...\n"
        "                 [--distribution zipfian|uniform] [--theta T]\n"
        "                 [--value-bytes N] [--period N] [--scan-len N]\n"
        "                 [--seed N] [--spec FILE] [-o FILE]\n"
        "                 [--crash N [--no-skipit]] [--stages]\n%s",
        setUsage().c_str());
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string tok;
    while (std::getline(ss, tok, ','))
        out.push_back(tok);
    return out;
}

void
printRun(const char *tag, const KvBenchRow &row, const KvRunResult &r)
{
    std::printf("  mix %s  cores %u  skip %-3s  %8llu cycles  "
                "%7.3f ops/kcycle  p50 %6.0f  p99 %6.0f  "
                "cleans %llu  drops %llu\n",
                row.mix.c_str(), row.cores, tag,
                static_cast<unsigned long long>(r.cycles),
                r.ops_per_kcycle, r.latency.percentile(50),
                r.latency.percentile(99),
                static_cast<unsigned long long>(r.cbo_cleans),
                static_cast<unsigned long long>(r.skip_drops));
}

int
crashMode(KvSpec spec)
{
    std::printf("kv crash audit: mix %s, %u cores, power fails at "
                "cycle %llu, skip-it %s\n",
                spec.mix.c_str(), spec.cores,
                static_cast<unsigned long long>(spec.crash_at),
                spec.skipit ? "on" : "off");
    const KvRunResult r = runKv(spec);
    std::printf("  %s after %llu cycles\n",
                r.crashed ? "crashed" : "quiesced before the crash point",
                static_cast<unsigned long long>(r.cycles));
    std::printf("  durability oracle: %zu violation(s)\n",
                r.oracle_violations);
    std::printf("  recovery walk:     %zu violation(s)\n",
                r.recovery_violations.size());
    for (const std::string &v : r.recovery_violations)
        std::printf("    %s\n", v.c_str());
    if (!r.durable()) {
        std::printf("FAIL: the crash image is not recoverable\n");
        return 1;
    }
    std::printf("PASS: every index-reachable record is durable\n");
    return 0;
}

/** The whole tool; a std::exception it throws is main()'s error. */
int
run(int argc, char **argv)
{
    KvBenchSpec spec;
    std::string out_path = "BENCH_kv.json";
    bool crash_skipit = true;
    bool stages = false;
    Cycle crash_at = 0;

    // CLI flags override the JSON spec, so parse --spec first.
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--spec" && i + 1 < argc)
            spec = KvBenchSpec::fromJsonText(readFile(argv[i + 1]));
    }

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--spec" && i + 1 < argc) {
            ++i; // parsed above
        } else if (arg == "--mixes" && i + 1 < argc) {
            spec.mixes = splitList(argv[++i]);
        } else if (arg == "--cores" && i + 1 < argc) {
            spec.cores.clear();
            for (const std::string &c : splitList(argv[++i]))
                spec.cores.push_back(parseUnsigned<unsigned>("--cores", c));
        } else if (arg == "--keys" && i + 1 < argc) {
            spec.base.keys = parseUnsigned("--keys", argv[++i]);
        } else if (arg == "--ops" && i + 1 < argc) {
            spec.base.ops = parseUnsigned("--ops", argv[++i]);
        } else if (arg == "--slices" && i + 1 < argc) {
            spec.base.slices = parseUnsigned<unsigned>("--slices", argv[++i]);
        } else if (arg == "--set" && i + 1 < argc) {
            applySet(argv[++i], spec.base, &KvSpec::setMachine);
        } else if (arg == "--distribution" && i + 1 < argc) {
            spec.base.distribution = argv[++i];
        } else if (arg == "--theta" && i + 1 < argc) {
            spec.base.theta = parseFinite("--theta", argv[++i]);
        } else if (arg == "--value-bytes" && i + 1 < argc) {
            spec.base.value_bytes =
                parseUnsigned<unsigned>("--value-bytes", argv[++i]);
        } else if (arg == "--period" && i + 1 < argc) {
            spec.base.arrival_period = parseUnsigned("--period", argv[++i]);
        } else if (arg == "--scan-len" && i + 1 < argc) {
            spec.base.scan_len =
                parseUnsigned<unsigned>("--scan-len", argv[++i]);
        } else if (arg == "--checkpoint" && i + 1 < argc) {
            spec.base.checkpoint_every =
                parseUnsigned<unsigned>("--checkpoint", argv[++i]);
        } else if (arg == "--seed" && i + 1 < argc) {
            spec.base.seed = parseUnsigned("--seed", argv[++i]);
        } else if (arg == "-o" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--crash" && i + 1 < argc) {
            crash_at = parseUnsigned("--crash", argv[++i]);
        } else if (arg == "--no-skipit") {
            crash_skipit = false;
        } else if (arg == "--stages") {
            stages = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            return 1;
        }
    }

    spec.checkGrid();
    if (crash_at > 0) {
        KvSpec s = spec.base;
        s.mix = spec.mixes.front();
        s.cores = spec.cores.front();
        s.crash_at = crash_at;
        s.skipit = crash_skipit;
        return crashMode(s);
    }

    // Open the report before anything runs: a bad path costs no run.
    std::ofstream out;
    if (out_path != "-") {
        out.open(out_path);
        if (!out)
            throw std::runtime_error("cannot write " + out_path);
    }

    if (stages) {
        // Stage histograms for the first grid point, skip on.
        KvSpec s = spec.base;
        s.mix = spec.mixes.front();
        s.cores = spec.cores.front();
        s.trace_stages = true;
        const KvRunResult r = runKv(s);
        std::printf("per-stage latency histograms (mix %s, %u "
                    "cores):\n",
                    s.mix.c_str(), s.cores);
        for (const auto &[name, hist] : r.stages)
            std::printf("  %-24s %s\n", name.c_str(),
                        hist.summary().c_str());
        std::printf("\n");
    }

    const KvBenchResult result = runKvBench(spec);
    std::printf("served-KV bench: %llu keys, %llu ops/hart, "
                "%s(theta=%.2f), period %llu, seed %llu\n",
                static_cast<unsigned long long>(spec.base.keys),
                static_cast<unsigned long long>(spec.base.ops),
                spec.base.distribution.c_str(), spec.base.theta,
                static_cast<unsigned long long>(
                    spec.base.arrival_period),
                static_cast<unsigned long long>(spec.base.seed));
    for (const KvBenchRow &row : result.rows) {
        printRun("on", row, row.on);
        printRun("off", row, row.off);
        const double delta =
            row.off.cycles == 0
                ? 0.0
                : 100.0 *
                      (static_cast<double>(row.off.cycles) -
                       static_cast<double>(row.on.cycles)) /
                      static_cast<double>(row.off.cycles);
        std::printf("    -> skip bit dropped %llu/%llu cleans, "
                    "%.2f%% fewer cycles\n",
                    static_cast<unsigned long long>(
                        row.on.skip_drops),
                    static_cast<unsigned long long>(
                        row.on.cbo_cleans),
                    delta);
    }

    if (out_path == "-") {
        writeKvBenchJson(result, std::cout);
    } else {
        writeKvBenchJson(result, out);
        if (!out.flush())
            throw std::runtime_error("cannot write " + out_path);
        std::printf("wrote %s\n", out_path.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
