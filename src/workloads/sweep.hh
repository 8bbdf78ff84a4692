/**
 * @file
 * The parallel experiment runner: expand a sweep specification (a small
 * JSON document or a CLI-built grid) into independent simulation runs,
 * execute them on a thread pool — one isolated Simulator/SoC per run —
 * and merge the results into one ReportTable in grid order.
 *
 * Determinism: grid expansion is a cartesian product in axis order (last
 * axis varies fastest), rows are stored by grid index regardless of
 * worker completion order, and every run either has no randomness at all
 * (the cycle-model and platform kinds) or derives its RNG seed from the
 * spec's base seed plus the grid index. Two runs of the same spec
 * therefore render byte-identical CSVs, at any -j.
 */

#ifndef SKIPIT_WORKLOADS_SWEEP_HH
#define SKIPIT_WORKLOADS_SWEEP_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/report.hh"

namespace skipit::workloads {

/** One sweep dimension: a parameter name and the values it takes. */
struct SweepAxis
{
    std::string name;
    std::vector<std::string> values; //!< verbatim tokens, parsed per kind
};

/**
 * A full sweep: which measurement to run and over which grid. An axis
 * name may appear once.
 *
 * Kinds and their axes (all axes optional; defaults in parentheses):
 *  - "cbo"        cboLatency          — Fig 9 style
 *  - "wwr"        writeWbReadLatency  — Fig 10 style
 *  - "redundant"  redundantWbLatency  — Fig 13 style
 *      threads(1) bytes(4096) flush(1) cores(threads), plus every
 *      machine field in SoCConfig::fieldNames() (skipit, fshrs,
 *      l2_policy, ...), parsed by SoCConfig::set() with SoCConfig's
 *      defaults
 *  - "throughput" runThroughput       — Figs 14-16 style
 *      ds(bst) policy(skip-it) mode(automatic) update_pct(5)
 *      threads(2) budget(400000) flit_entries(65536) seed(base+index)
 *      Inapplicable ds/policy combinations (link-and-persist on the
 *      BST) produce "n/a" result cells rather than failing the sweep.
 *  - "platform"   PlatformModel::latency — Figs 11/12 style
 *      platform(intel) instr(flush) threads(1) bytes(4096)
 *      platform: intel (Xeon Gold 6238T), amd (EPYC 7763) or graviton
 *      (Graviton3); instr: flush (clflushopt, dc civac), flush-serial
 *      (clflush) or clean (clwb, dc cvac). The BOOM series of those
 *      figures are cbo rows.
 *
 * threads is at least 1 in every kind, and update_pct lies in [0, 100].
 */
struct SweepSpec
{
    std::string kind = "cbo";
    std::uint64_t seed = 0; //!< base RNG seed; run i uses seed + i
    std::vector<SweepAxis> axes;

    /**
     * Parse the JSON form:
     *
     *   { "kind": "cbo", "seed": 0,
     *     "axes": { "threads": [1, 2], "bytes": [64, 4096] } }
     *
     * Axis order in the document is the expansion order.
     * @throws std::runtime_error on malformed input
     */
    static SweepSpec fromJsonText(const std::string &text);
};

/** One expanded grid point. */
struct SweepPoint
{
    std::size_t index = 0; //!< position in grid order
    std::vector<std::pair<std::string, std::string>> params;
};

/** Cartesian product of the spec's axes, last axis varying fastest. */
std::vector<SweepPoint> expandGrid(const SweepSpec &spec);

/**
 * Run every grid point of @p spec on @p jobs worker threads (clamped to
 * >= 1) and return the merged table: one column per axis followed by the
 * kind's result columns, one row per point, in grid order.
 *
 * @throws std::runtime_error on an unknown kind, a repeated axis name,
 *         an unknown axis name for the kind, an unparsable or
 *         out-of-range value, a grid point whose machine fails
 *         SoCConfig::check() or has more threads than cores, or a
 *         failed run; all but the last before any run starts
 */
ReportTable runSweep(const SweepSpec &spec, unsigned jobs);

} // namespace skipit::workloads

#endif // SKIPIT_WORKLOADS_SWEEP_HH
