/**
 * @file
 * Seeded fault-injection fuzzing for the coherence/flush protocol.
 *
 * Generates random multi-hart programs (loads / stores / CBO.CLEAN /
 * CBO.FLUSH / FENCE over a small aliasing-prone line pool), runs them on
 * a SoC with the invariant checker latching and — optionally — seeded
 * schedule jitter on every TileLink channel, and reports the first
 * failure: a latched invariant violation, a wrong load value, a wrong
 * persisted word, or a hang.
 *
 * Function must be schedule-invariant: the jitter layer only perturbs
 * *timing* (per-channel delay and backpressure bursts), so every
 * invariant and every architectural value must hold under any jitter
 * seed. A failing seed replays deterministically — same spec + same seed
 * is the same run, bit for bit — and can be shrunk to a minimal program
 * and exported as a replay bundle (config + programs + Chrome trace +
 * transaction history).
 *
 * Value oracle: hart h owns word offset (h % 8) * 8 of every pool line
 * (deliberate false sharing — maximum protocol traffic, zero data
 * races). With more than 8 harts the pool is striped into
 * ceil(harts / 8) line groups and hart h stores/loads only lines of
 * group h / 8, so single-word ownership still holds at any core count.
 * Stores and loads of hart h touch only its own word, so the expected
 * value of every load, and of every persisted word after the final
 * flush-everything epilogue, follows from h's program alone.
 *
 * Crash axis: with crash_points > 0 each seed first runs to completion
 * (establishing its natural length T and the usual end-state oracles),
 * then re-runs with the power failing at crash_points seed-derived
 * cycles in [1, T]. Each crash run freezes the persist-domain image via
 * the durability oracle and checks (a) the oracle's own soundness +
 * durability audit and (b) a word-level crash oracle: for every owned
 * word, the frozen image must hold the value of some store at or after
 * the last store provably persisted before the crash (last fence-
 * observed CBO of that line, derived from the program and the retired-
 * fence count). A crash failure records its crash cycle so replay and
 * shrinking re-run the exact same truncated execution.
 */

#ifndef SKIPIT_WORKLOADS_FUZZ_HH
#define SKIPIT_WORKLOADS_FUZZ_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "soc/soc.hh"

namespace skipit::workloads {

/** Shape of one fuzz run; every field is part of the replay identity. */
struct FuzzSpec
{
    /** cores is the hart count (>8 stripes the pool into ceil(cores/8)
     *  line-ownership groups); fuzzConfig() adds the checker, jitter,
     *  fault and crash settings. */
    SoCConfig machine{};
    unsigned ops = 120;   //!< random ops per hart (epilogue excluded)
    unsigned lines = 6;   //!< pool size; small = aliasing-prone
    Addr pool_base = 0x90000; //!< line-aligned pool base
    bool jitter = true;       //!< enable TileLink schedule perturbation
    unsigned max_delay = 12;  //!< jitter: max extra cycles per message
    Cycle max_cycles = 2'000'000; //!< hang deadline per run
    bool break_probe_invalidate = false; //!< negative-control fault
    /** Crash (power-fail) cycles to sample per seed, after one clean
     *  run establishes the seed's natural length. 0 = no crash axis. */
    unsigned crash_points = 0;
    /** Crash at exactly this cycle instead of sampling (replay/shrink
     *  identity of one crash run). 0 = off. */
    Cycle crash_at = 0;

    /** The machine's SoCConfig::check(), then the pool size: "" when
     *  fuzzConfig() accepts this spec, else what it would assert on. */
    std::string check() const;
};

/** One reproducible failure. */
struct FuzzFailure
{
    std::uint64_t seed = 0;
    std::string kind;   //!< "invariant" | "value" | "persist" | "hang"
                        //!< | "crash-durability" | "crash-value"
    std::string detail; //!< human-readable; names the invariant if any
    Cycle cycle = 0;    //!< when it was detected
    /** Crash cycle of the failing run (0 = it was not a crash run).
     *  Part of the replay identity: shrinking and replay bundles pin
     *  spec.crash_at to this value so the truncated run reproduces. */
    Cycle crash_at = 0;
    std::vector<Program> programs; //!< the programs that failed
};

/** Derive the SoC configuration a fuzz run uses (checker latching,
 *  jitter seeded from @p seed when the spec enables it). Asserts
 *  FuzzSpec::check(). */
SoCConfig fuzzConfig(const FuzzSpec &spec, std::uint64_t seed);

/** Generate the per-hart programs for @p seed (epilogue included). */
std::vector<Program> generateFuzzPrograms(const FuzzSpec &spec,
                                          std::uint64_t seed);

/**
 * Run @p programs under @p spec / @p seed and check everything.
 * @return the first detected failure, or nullopt on a clean run
 */
std::optional<FuzzFailure> runFuzzPrograms(
    const FuzzSpec &spec, std::uint64_t seed,
    const std::vector<Program> &programs);

/** generateFuzzPrograms + runFuzzPrograms. */
std::optional<FuzzFailure> runFuzzSeed(const FuzzSpec &spec,
                                       std::uint64_t seed);

/**
 * Sweep seeds [base, base + count) on @p jobs worker threads (each run
 * owns an isolated SoC). Deterministic: always reports the failure with
 * the LOWEST seed, independent of worker scheduling.
 */
std::optional<FuzzFailure> runFuzz(const FuzzSpec &spec,
                                   std::uint64_t base_seed, unsigned count,
                                   unsigned jobs = 1);

/**
 * Greedy delta-debugging: repeatedly drop chunks (halves down to single
 * ops) from each hart's program while the failure still reproduces.
 * @return the smallest reproducing variant found (kind may differ from
 *         the original; any failure counts as reproducing)
 */
FuzzFailure shrinkFuzzFailure(const FuzzSpec &spec,
                              const FuzzFailure &failure);

/**
 * Write a replay bundle into directory @p dir (created if needed):
 * config.txt (spec + seed + resolved SoC config), core<i>.s (the
 * programs, assembleProgram-compatible), failure.txt, trace.json
 * (Chrome trace of a re-run) and txn_history.txt (event log of the
 * last transaction). @return false on I/O failure (warns, no throw).
 */
bool writeReplayBundle(const FuzzSpec &spec, const FuzzFailure &failure,
                       const std::string &dir);

/** Parse a bundle's config.txt (one `key value` line per key, machine
 *  keys through SoCConfig::set()) back into (spec, seed). Programs are
 *  read from the bundle's core<i>.s.
 *  @throws std::runtime_error on a missing file, malformed input or a
 *          spec that fails FuzzSpec::check() */
std::pair<FuzzSpec, std::uint64_t> readReplayBundle(
    const std::string &dir, std::vector<Program> &programs);

} // namespace skipit::workloads

#endif // SKIPIT_WORKLOADS_FUZZ_HH
