/**
 * @file
 * The full simulated machine: N BOOM-style cores (Hart + LSU + L1 data
 * cache with flush unit) sharing one inclusive L2 over TileLink, backed
 * by a DRAM model — the paper's experimental platform (§7.1), with core
 * count parameterized for the 1/2/4/8-thread sweeps.
 */

#ifndef SKIPIT_SOC_SOC_HH
#define SKIPIT_SOC_SOC_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/hart.hh"
#include "core/lsu.hh"
#include "dram/dram.hh"
#include "l1/data_cache.hh"
#include "l2/cache.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/watchdog.hh"
#include "tilelink/link.hh"
#include "verify/checker.hh"
#include "verify/durability.hh"

namespace skipit {

/** Whole-machine configuration. */
struct SoCConfig
{
    /** Hart count (1-64). The paper's platform is dual-core (§7.1);
     *  scale-out configurations stripe more harts over the sliced L2. */
    unsigned cores = 2;
    L1Config l1{};
    L2Config l2{};
    DramConfig dram{};
    LsuConfig lsu{};
    Cycle link_latency = 3;
    unsigned dispatch_width = 2;
    /** Stall watchdog (on by default; detection only, zero timing cost). */
    WatchdogConfig watchdog{};
    /** Coherence invariant checker (on by default; read-only, zero timing
     *  cost — enabling it cannot change a single cycle count). The SoC
     *  clears verify.check_skip automatically when the configuration
     *  makes the skip bit genuinely unsound (skip_it without
     *  grant_data_dirty, reachable via the ablation sweep axes). */
    verify::CheckerConfig verify{};
    /** Power-failure injection + durability oracle (off by default;
     *  observer-only and cycle-neutral when enabled: the freezer and
     *  oracle never self-schedule and never mutate simulated state, so
     *  cycle counts are unchanged — asserted by
     *  tests/verify/test_durability.cc). */
    verify::DurabilityConfig durability{};
    /** Schedule perturbation on every TileLink channel (off by default;
     *  timing-only fault injection for fuzzing). Each core's link mixes
     *  its index into the seed so links jitter independently. */
    ChannelJitter jitter{};
    /** Quiescence fast-forward (on by default): skip the clock across
     *  provably idle stretches. Bit-identical timing — see the
     *  Ticked::nextWake() contract — so there is no reason to turn it
     *  off outside of equivalence tests. */
    bool fast_forward = true;

    /** Convenience: toggle every Skip-It-related feature at once. */
    SoCConfig &
    withSkipIt(bool on)
    {
        l1.skip_it = on;
        l2.grant_data_dirty = on;
        return *this;
    }

    /// @name The machine-field table (soc.cc): the knobs the front
    /// ends set by name; each gives cores its own meaning.
    /// @{
    /** Set field @p name from the whole @p token ("skipit" sets the skip
     *  bit and GrantDataDirty). @return false for a name outside the
     *  table. @throws std::runtime_error naming the field on a bad token */
    bool set(const std::string &name, const std::string &token);
    /** The (name, token) pairs, in table order, that set() on a default
     *  config to rebuild this one's table fields. */
    std::vector<std::pair<std::string, std::string>> changedFields() const;
    static std::vector<std::string> fieldNames();
    /** The error for a name set() does not know, listing the fields. */
    static std::string unknownField(const std::string &name);
    /// @}

    /** One-line-per-parameter human-readable description. */
    std::string describe() const;

    /** The first field outside the range its component's constructor
     *  asserts, as "<field> must be <range>, got <value>"; "" when the
     *  machine can be built. */
    std::string check() const;
};

/**
 * Owns and wires all components. Typical use:
 *
 *   SoC soc(cfg);
 *   soc.hart(0).setProgram(p0);
 *   soc.hart(1).setProgram(p1);
 *   Cycle t = soc.runToCompletion();
 */
class SoC
{
  public:
    explicit SoC(const SoCConfig &cfg);

    Simulator &sim() { return sim_; }
    Stats &stats() { return stats_; }
    unsigned cores() const { return cfg_.cores; }

    Hart &hart(unsigned core) { return *harts_.at(core); }
    Lsu &lsu(unsigned core) { return *lsus_.at(core); }
    DataCache &l1(unsigned core) { return *l1s_.at(core); }
    /** Slice 0 — the whole L2 in the default slices=1 configuration. */
    L2Cache &l2() { return *l2s_.front(); }
    /** Slice @p slice of the address-interleaved L2. */
    L2Cache &l2(unsigned slice) { return *l2s_.at(slice); }
    unsigned l2Slices() const { return unsigned(l2s_.size()); }
    /** Core @p core's TileLink: its L1 sends on it, and it routes each
     *  A, C and E message to the message's home slice. */
    TLLink &link(unsigned core) { return *links_.at(core); }
    Dram &dram() { return *dram_; }
    Watchdog &watchdog() { return *watchdog_; }
    verify::CoherenceChecker &checker() { return *checker_; }
    const verify::CoherenceChecker &checker() const { return *checker_; }
    verify::DurabilityOracle &durability() { return *durability_; }
    const verify::DurabilityOracle &durability() const
    {
        return *durability_;
    }

    /** Run until every hart's program is done. @return elapsed cycles. */
    Cycle runToCompletion(Cycle max_cycles = 100'000'000);

    /** Run until the memory system is fully idle as well. */
    Cycle runToQuiescence(Cycle max_cycles = 100'000'000);

    /** Every hart done, every L1 quiesced and every L2 slice idle: the
     *  condition runToQuiescence() runs to. A message on a link always
     *  has a busy L1 unit or a live L2 MSHR behind it. */
    bool quiesced() const;

    /** Set the same program on all harts (per-thread copies). */
    void setPrograms(const std::vector<Program> &programs);

  private:
    SoCConfig cfg_;
    Simulator sim_;
    Stats stats_;
    std::unique_ptr<Dram> dram_;
    std::vector<std::unique_ptr<L2Cache>> l2s_;
    std::vector<std::unique_ptr<TLLink>> links_;
    std::vector<std::unique_ptr<DataCache>> l1s_;
    std::vector<std::unique_ptr<Lsu>> lsus_;
    std::vector<std::unique_ptr<Hart>> harts_;
    std::unique_ptr<Watchdog> watchdog_;
    std::unique_ptr<verify::CoherenceChecker> checker_;
    std::unique_ptr<verify::DurabilityOracle> durability_;
    std::unique_ptr<verify::CrashFreezer> freezer_;
};

} // namespace skipit

#endif // SKIPIT_SOC_SOC_HH
