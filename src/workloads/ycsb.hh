/**
 * @file
 * YCSB-style served-KV benchmark: a deterministic open-loop workload
 * generator over the durable KV store (src/kv), run through the full
 * simulated LSU→L1→TileLink→L2→DRAM hierarchy.
 *
 * Mixes (read / update / insert / scan), after the YCSB core workloads:
 *   A  50/50/ 0/ 0   update-heavy      B  95/ 5/ 0/ 0   read-mostly
 *   C 100/ 0/ 0/ 0   read-only         D  95/ 0/ 5/ 0   read-latest
 *   E   0/ 0/ 5/95   short scans
 *
 * Open-loop traffic: operation i of a hart arrives at absolute cycle
 * i * arrival_period (a WaitUntil op gates its dispatch), and its
 * end-to-end latency is measured from that *arrival* time to the RDCYCLE
 * marker after its last memory operation retires — so queueing delay
 * behind a backlogged store shows up in the tail percentiles, the way an
 * open-loop load generator measures a real server. arrival_period == 0
 * degenerates to a closed loop (back-to-back ops, latency == service
 * time).
 *
 * Determinism: key streams are generated host-side from the spec seed
 * before the machine is even built, and the simulation is a pure
 * function of its configuration, so a fixed-seed run produces
 * byte-identical results on every rerun.
 */

#ifndef SKIPIT_WORKLOADS_YCSB_HH
#define SKIPIT_WORKLOADS_YCSB_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/histogram.hh"
#include "sim/random.hh"
#include "sim/types.hh"
#include "soc/soc.hh"
#include "tilelink/messages.hh"

namespace skipit {
namespace kv {
class KvStore;
}

namespace workloads {

/**
 * The YCSB zipfian rank generator: sample(rng) draws a rank in [0, n)
 * where rank 0 is the hottest item, P(rank r) ∝ 1 / (r+1)^theta.
 * Sampling is exact inverse-CDF (not YCSB's closed-form approximation),
 * so the drawn frequencies match the pmf to statistical noise — the
 * chi-square tests rely on that.
 */
class ZipfianGen
{
  public:
    /** @param theta skew in (0, 1); YCSB's default is 0.99 */
    ZipfianGen(std::uint64_t n, double theta);

    /** Draw one rank in [0, n). */
    std::uint64_t sample(Rng &rng) const;

    /** Exact P(rank) — the chi-square tests compare against this. */
    double probability(std::uint64_t rank) const;

    std::uint64_t n() const { return n_; }
    double theta() const { return theta_; }

  private:
    std::uint64_t n_;
    double theta_;
    double zetan_;
    std::vector<double> cdf_; //!< cdf_[r] = P(rank <= r)
};

/** One served-KV run: the workload point and the machine to serve it. */
struct KvSpec
{
    std::string mix = "A";      //!< A|B|C|D|E
    std::uint64_t keys = 1024;  //!< prefilled keys per hart
    std::uint64_t ops = 4096;   //!< operations per hart
    unsigned cores = 2;
    unsigned slices = 1;        //!< L2 slices
    bool skipit = true;         //!< skip bit and GrantDataDirty
    /** The rest of the machine; kvMachineConfig() overrides its cores,
     *  L2 slices and skip bit with the three fields above. */
    SoCConfig machine{};
    std::string distribution = "zipfian"; //!< zipfian|uniform
    double theta = 0.99;
    unsigned value_bytes = 64;
    Cycle arrival_period = 0;   //!< open-loop inter-arrival; 0 = closed
    unsigned scan_len = 16;     //!< max scan length (mix E)
    /** Ops between store epoch checkpoints (conservative re-flush of
     *  the dirtied working set — the skip bit's fodder); 0 = never. */
    unsigned checkpoint_every = 16;
    std::uint64_t seed = 1;
    Cycle crash_at = 0;         //!< >0: power-fail at this cycle + audit
    Cycle max_cycles = 100'000'000;
    bool trace_stages = false;  //!< attach a TxnTracer, keep stage hists

    /** machine.set(), but l2_slices, skipit and grant_data_dirty throw:
     *  slices and the grid's skip on/off set those. */
    bool setMachine(const std::string &name, const std::string &token);
};

/** Everything one run produced. */
struct KvRunResult
{
    Cycle cycles = 0;             //!< run start to full quiescence
    std::uint64_t total_ops = 0;  //!< ops * cores (completed ops)
    double ops_per_kcycle = 0.0;  //!< throughput
    Histogram latency;            //!< end-to-end, all ops, all harts
    std::map<std::string, Histogram> by_op; //!< read/update/insert/scan
    std::uint64_t cbo_cleans = 0; //!< cleans accepted by the L1s
    std::uint64_t skip_drops = 0; //!< cleans the skip bit dropped
    /** Stage-latency histograms when trace_stages was set. */
    std::map<std::string, Histogram> stages;

    /// @name Crash-run verdict (crash_at > 0 only)
    /// @{
    bool crashed = false;
    /** Violations latched by the generic durability oracle. */
    std::size_t oracle_violations = 0;
    /** Violations found by the KV recovery walk over the frozen image. */
    std::vector<std::string> recovery_violations;
    bool durable() const
    {
        return oracle_violations == 0 && recovery_violations.empty();
    }
    /// @}
};

/**
 * Serve one workload point. Builds one prefilled store per hart, pokes
 * the recovered-store image into DRAM, runs the per-hart op traces to
 * quiescence, and collects latency/throughput/counter results.
 *
 * Crash runs (crash_at > 0) stop at the power failure; throughput and
 * latency fields are not meaningful, and instead the frozen
 * persist-domain image is audited: the generic durability-oracle
 * invariants plus a KV-level recovery walk (every index-reachable node
 * must be fully initialized and point at a self-consistent durable value
 * record — a crash must never expose a pointer to non-durable bytes).
 *
 * @throws std::runtime_error on an invalid spec
 */
KvRunResult runKv(const KvSpec &spec);

/** The machine runKv(@p spec) serves on. */
SoCConfig kvMachineConfig(const KvSpec &spec);

/**
 * What runKv does between building the machine and running it: poke
 * @p spec's prefilled store images into @p soc's DRAM and give each hart
 * its op program. Tests use it to serve the same workload on a machine
 * they set up themselves (fast-forward off, the wake audit on).
 * @throws std::runtime_error on an invalid spec
 */
void loadKvServe(const KvSpec &spec, SoC &soc);

/** The benchmark grid: mixes × core counts, each with skip on and off. */
struct KvBenchSpec
{
    KvSpec base;
    std::vector<std::string> mixes = {"A", "B", "C"};
    std::vector<unsigned> cores = {1, 2};

    /**
     * Parse the JSON form (all fields optional):
     *
     *   { "mixes": ["A", "B", "C"], "cores": [1, 2],
     *     "keys": 1024, "ops": 4096, "seed": 1, "theta": 0.99,
     *     "distribution": "zipfian", "value_bytes": 64,
     *     "arrival_period": 0, "slices": 1, "scan_len": 16,
     *     "l2_policy": "exclusive" }   <- any other key: setMachine()
     *
     * @throws std::runtime_error on malformed input or an unknown key
     */
    static KvBenchSpec fromJsonText(const std::string &text);

    /** @throws std::runtime_error when mixes or cores is empty: such a
     *  grid serves nothing and reports no runs. */
    void checkGrid() const;
};

/** One grid point, served with the skip bit on and off. */
struct KvBenchRow
{
    std::string mix;
    unsigned cores = 0;
    KvRunResult on;
    KvRunResult off;
};

/** The whole grid, in (mix, cores) spec order. */
struct KvBenchResult
{
    KvBenchSpec spec;
    std::vector<KvBenchRow> rows;
};

/** Run the full grid. @throws std::runtime_error on an invalid spec */
KvBenchResult runKvBench(const KvBenchSpec &spec);

/**
 * Render BENCH_kv.json (schema "skipit-kv-bench-v1"): the config block,
 * one "runs" entry per (mix, cores, skipit) with throughput, latency
 * percentiles and clean/skip counters, and one "comparisons" entry per
 * (mix, cores) with the skip-on/off deltas. Deliberately excludes any
 * wall-clock quantity, so a fixed seed always renders the same bytes.
 */
void writeKvBenchJson(const KvBenchResult &result, std::ostream &os);

/**
 * KV recovery walk over hart @p hart's region of a frozen post-crash
 * image: follow the bottom-level skiplist chain from the head sentinel
 * exactly like recovery would, and check that every *reachable* node is
 * fully initialized and points at a self-consistent durable value
 * record. The store's fenced commit epochs guarantee this for any crash
 * point; a violation means a pointer was published before its target
 * bytes were durable. Appends one message per violation to @p out.
 */
void auditKvRecovery(const KvSpec &spec, const kv::KvStore &store,
                     unsigned hart,
                     const std::unordered_map<Addr, LineData> &image,
                     std::vector<std::string> &out);

} // namespace workloads
} // namespace skipit

#endif // SKIPIT_WORKLOADS_YCSB_HH
