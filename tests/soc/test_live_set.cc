/**
 * @file
 * Cycle-identity pins for the live-entry bitsets of the L2 slices and
 * the L1s.
 *
 * The L2 and the L1 walk only the MSHRs, FSHRs and client ports whose
 * bits say they are occupied or can act. Walks go in ascending index
 * order and allocation takes the lowest free index, so the executed
 * cycles, the allocation choices and the probe-event order must be
 * exactly those of a model that visits every entry every cycle. The
 * LiveSetPin values were captured from such a model.
 *
 * LiveSetOracle hand-steps the same machines and, after every cycle,
 * has each L1 and each L2 slice recompute its bitsets from its entries
 * and port queues (checkLiveSets()). A stale bit need not move a cycle
 * or a counter (a port visited needlessly just finds nothing), and one
 * that does may show only as a changed skipped-cycle count far from its
 * cause; the oracle names the mask and the cycle where it went wrong.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "soc/soc.hh"
#include "storm.hh"

namespace skipit {
namespace {

/** FNV-1a: folds @p n bytes at @p p into @p h. */
std::uint64_t
fnv(std::uint64_t h, const void *p, std::size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (std::size_t i = 0; i < n; ++i)
        h = (h ^ b[i]) * 0x100000001b3ULL;
    return h;
}

constexpr std::uint64_t fnv_basis = 0xcbf29ce484222325ULL;

/**
 * A run's pinned outcome: cycles, skipped cycles and every non-zero
 * l1.*, l2.* and core*.lsu.* counter. The pin lists each counter summed
 * over the cores plus a digest of the per-core listing, so a count that
 * only moves from one core to another still shows.
 */
struct Outcome
{
    std::string pin;
    std::string listing; //!< every counter under its full name
};

Outcome
outcome(SoC &soc, Cycle cycles)
{
    std::map<std::string, std::uint64_t> totals;
    std::ostringstream listing;
    const auto add = [&](const std::string &name, std::uint64_t value,
                         const std::string &total) {
        totals[total] += value;
        listing << name << '=' << value << '\n';
    };
    // "l1.<core>.x" sums into "l1.x", "core<core>.lsu.x" into "lsu.x".
    for (const auto &[name, value] : soc.stats().byPrefix("l1."))
        add(name, value, "l1." + name.substr(name.find('.', 3) + 1));
    for (const auto &[name, value] : soc.stats().byPrefix("l2."))
        add(name, value, name);
    for (const auto &[name, value] : soc.stats().byPrefix("core")) {
        const std::size_t lsu = name.find(".lsu.");
        if (lsu != std::string::npos)
            add(name, value, name.substr(lsu + 1));
    }
    const std::string text = listing.str();
    std::ostringstream pin;
    pin << "cycles=" << cycles << "\nskipped=" << soc.sim().skippedCycles()
        << "\ncounters=0x" << std::hex
        << fnv(fnv_basis, text.data(), text.size()) << std::dec << '\n';
    for (const auto &[name, value] : totals)
        pin << name << '=' << value << '\n';
    return {pin.str(), text};
}

/** Folds every probe event's cycle, txn, stage, track and detail into
 *  one FNV-1a digest: any change in event order or content moves it. */
class DigestSink final : public probe::Sink
{
  public:
    void
    onEvent(const probe::Event &e) override
    {
        h_ = fnv(h_, &e.cycle, sizeof e.cycle);
        h_ = fnv(h_, &e.txn, sizeof e.txn);
        h_ = fnv(h_, e.stage, std::char_traits<char>::length(e.stage) + 1);
        h_ = fnv(h_, e.track.c_str(), e.track.size() + 1);
        h_ = fnv(h_, e.detail.c_str(), e.detail.size() + 1);
    }

    std::uint64_t digest() const { return h_; }

  private:
    std::uint64_t h_ = fnv_basis;
};

constexpr unsigned storm_harts = 16;
constexpr unsigned storm_slices = 4;
constexpr unsigned storm_ops = 400;

Outcome
runStorm(SoCConfig cfg, DigestSink *sink = nullptr)
{
    SoC soc(cfg);
    if (sink != nullptr)
        soc.sim().probes().attach(*sink);
    soc.setPrograms(stormPrograms(cfg.cores, storm_ops));
    const Cycle cycles = soc.runToQuiescence();
    const Stats &st = soc.stats();
    EXPECT_GT(st.get("l2.victim_writebacks"), 0u);
    EXPECT_GT(st.get("l2.listbuffer.buffered"), 0u);
    EXPECT_GT(st.get("l2.probes"), 0u);
    std::uint64_t evictions = 0;
    for (unsigned c = 0; c < cfg.cores; ++c)
        evictions += st.get("l1." + std::to_string(c) + ".evictions");
    EXPECT_GT(evictions, 0u);
    return outcome(soc, cycles);
}

constexpr const char *storm_pin = R"(cycles=32003
skipped=700
counters=0x65ef436792d587a6
l1.cbo_clean_accepted=714
l1.cbo_coalesced=8
l1.cbo_flush_accepted=762
l1.evictions=61
l1.fills=3649
l1.flushq_full=504
l1.fshr_allocs=1476
l1.fshr_completions=1476
l1.fshr_forwards=5
l1.load_hits=454
l1.load_misses=143651
l1.mshr_full=178428
l1.mshr_primary=3649
l1.mshr_secondary=263
l1.nacks=181490
l1.probes=3523
l1.skipit_dropped=134
l1.store_hits=396
l1.store_misses=38156
l1.store_upgrades=539
l1.writebacks=61
l2.acquires=3649
l2.fills=2687
l2.grants.clean=3025
l2.grants.dirty=624
l2.listbuffer.buffered=991
l2.probes=3523
l2.releases=61
l2.rootrelease.clean=714
l2.rootrelease.flush=762
l2.rootrelease.llc_skipped=105
l2.rootrelease.mem_writebacks=430
l2.victim_writebacks=1146
lsu.fences=188
lsu.retries=181490
lsu.stl_forwards=15
)";
constexpr const char *storm_exclusive_hashed_random_pin = R"(cycles=34176
skipped=411
counters=0x87208db926ac63dc
l1.cbo_clean_accepted=724
l1.cbo_coalesced=9
l1.cbo_flush_accepted=768
l1.evictions=26
l1.fills=3696
l1.flushq_full=460
l1.fshr_allocs=1492
l1.fshr_completions=1492
l1.fshr_forwards=6
l1.load_hits=422
l1.load_misses=144824
l1.mshr_full=183933
l1.mshr_primary=3696
l1.mshr_secondary=260
l1.nacks=188364
l1.probes=3587
l1.skipit_dropped=117
l1.store_hits=382
l1.store_misses=42514
l1.store_upgrades=552
l1.writebacks=26
l2.acquires=3696
l2.fills=3013
l2.grants.clean=3145
l2.grants.dirty=551
l2.listbuffer.buffered=978
l2.probes=3587
l2.releases=26
l2.rootrelease.clean=724
l2.rootrelease.flush=768
l2.rootrelease.llc_skipped=98
l2.rootrelease.mem_writebacks=406
l2.victim_writebacks=1252
lsu.fences=188
lsu.retries=188364
lsu.stl_forwards=16
)";
constexpr const char *one_slice_pin = R"(cycles=19471
skipped=1205
counters=0xb41b6cab1f022b95
l1.cbo_clean_accepted=166
l1.cbo_coalesced=1
l1.cbo_flush_accepted=172
l1.evictions=211
l1.fills=693
l1.flushq_full=205
l1.fshr_allocs=338
l1.fshr_completions=338
l1.fshr_forwards=2
l1.load_hits=253
l1.load_misses=26359
l1.mshr_full=31363
l1.mshr_primary=693
l1.mshr_secondary=56
l1.nacks=32022
l1.probes=267
l1.skipit_dropped=45
l1.store_hits=209
l1.store_misses=5495
l1.store_upgrades=319
l1.writebacks=211
l2.acquires=693
l2.fills=455
l2.grants.clean=553
l2.grants.dirty=140
l2.listbuffer.buffered=275
l2.probes=267
l2.releases=211
l2.rootrelease.clean=166
l2.rootrelease.flush=172
l2.rootrelease.llc_skipped=32
l2.rootrelease.mem_writebacks=149
l2.victim_writebacks=60
lsu.fences=47
lsu.retries=32022
lsu.stl_forwards=3
)";
constexpr std::uint64_t storm_probe_digest = 0x4c3d1ee9362ee223ULL;

TEST(LiveSetPin, EvictionStorm)
{
    const Outcome o = runStorm(stormConfig(storm_harts, storm_slices));
    EXPECT_EQ(o.pin, storm_pin) << o.listing;
}

TEST(LiveSetPin, EvictionStormProbeDigest)
{
    // With a sink attached every probe hook runs; the digest covers the
    // MSHR and FSHR indices in the track names, so it also pins the
    // allocation order.
    DigestSink sink;
    const Outcome o =
        runStorm(stormConfig(storm_harts, storm_slices), &sink);
    EXPECT_EQ(o.pin, storm_pin) << o.listing;
    EXPECT_EQ(sink.digest(), storm_probe_digest);
}

TEST(LiveSetPin, EvictionStormExclusiveHashedRandom)
{
    SoCConfig cfg = stormConfig(storm_harts, storm_slices);
    cfg.l2.policy = StateKind::Exclusive;
    cfg.l2.index = IndexKind::Hashed;
    cfg.l2.replace = ReplaceKind::Random;
    const Outcome o = runStorm(cfg);
    EXPECT_EQ(o.pin, storm_exclusive_hashed_random_pin) << o.listing;
}

// The DirectWiring rows run 4 harts on one slice. They are named for
// an earlier point-to-point L1-to-L2 wiring, whose pin every later
// wiring has reproduced.

TEST(LiveSetPin, DirectWiring)
{
    const Outcome o = runStorm(stormConfig(4, 1));
    EXPECT_EQ(o.pin, one_slice_pin) << o.listing;
}

// Each bitset is one 64-bit word, so every table it covers holds 1..64
// entries and every client id is below 64.

TEST(LiveSetDeathTest, L2MshrCountOutsideTheBitsetIsRejected)
{
    for (const unsigned n : {0u, 65u}) {
        SoCConfig cfg;
        cfg.l2.mshrs = n;
        EXPECT_DEATH(SoC{cfg}, "L2 MSHR count .*64-bit bitset") << n;
    }
}

TEST(LiveSetDeathTest, L1MshrCountOutsideTheBitsetIsRejected)
{
    for (const unsigned n : {0u, 65u}) {
        SoCConfig cfg;
        cfg.l1.mshrs = n;
        EXPECT_DEATH(SoC{cfg}, "L1 MSHR count .*64-bit bitset") << n;
    }
}

TEST(LiveSetDeathTest, FshrCountOutsideTheBitsetIsRejected)
{
    for (const unsigned n : {0u, 65u}) {
        SoCConfig cfg;
        cfg.l1.fshrs = n;
        EXPECT_DEATH(SoC{cfg}, "L1 FSHR count .*64-bit bitset") << n;
    }
}

TEST(LiveSetDeathTest, ClientIdPastTheBitsetIsRejected)
{
    Simulator sim;
    Stats stats;
    Dram dram("dram", sim, DramConfig{}, stats);
    L2Cache l2("l2", sim, L2Config{}, dram, stats);
    TLLink link(sim);
    EXPECT_DEATH(l2.connectPort(64, link), "L2 client id .*64-bit bitset");
}

/**
 * Step @p soc one cycle at a time until it is quiescent, checking every
 * L1's and every slice's bitsets after each cycle.
 * @return the first mismatch, or "" if none
 */
std::string
stepChecked(SoC &soc)
{
    while (!soc.quiesced()) {
        if (soc.sim().now() >= 1'000'000)
            return "no quiescence within 1M cycles";
        soc.sim().step();
        std::string why;
        for (unsigned c = 0; c < soc.cores() && why.empty(); ++c)
            why = soc.l1(c).checkLiveSets();
        for (unsigned s = 0; s < soc.l2Slices() && why.empty(); ++s)
            why = soc.l2(s).checkLiveSets();
        if (!why.empty())
            return why + " after cycle " + std::to_string(soc.sim().now());
    }
    return {};
}

std::string
stepStorm(const SoCConfig &cfg, unsigned ops)
{
    SoC soc(cfg);
    soc.setPrograms(stormPrograms(cfg.cores, ops));
    return stepChecked(soc);
}

TEST(LiveSetOracle, EvictionStorm)
{
    EXPECT_EQ(stepStorm(stormConfig(storm_harts, storm_slices), storm_ops),
              "");
}

TEST(LiveSetOracle, DirectWiring)
{
    EXPECT_EQ(stepStorm(stormConfig(4, 1), storm_ops), "");
}

TEST(LiveSetOracle, SixtyFourDirectClients)
{
    // 64 harts on one slice: the inbound mask uses all 64 bits.
    EXPECT_EQ(stepStorm(stormConfig(64, 1), 60), "");
}

/**
 * Run the storm under fast-forward with the wake audit on: every tick
 * the calendar gives or skips, and every jump, must match a fresh
 * nextWake(). @return the audit's first failure, or "" if none
 */
std::string
auditStorm(const SoCConfig &cfg)
{
    SoC soc(cfg);
    soc.setPrograms(stormPrograms(cfg.cores, storm_ops));
    soc.sim().auditWakes();
    soc.runToQuiescence(1'000'000);
    return soc.sim().wakeAudit();
}

TEST(WakeAudit, EvictionStorm)
{
    EXPECT_EQ(auditStorm(stormConfig(storm_harts, storm_slices)), "");
}

TEST(WakeAudit, DirectWiring)
{
    EXPECT_EQ(auditStorm(stormConfig(4, 1)), "");
}

} // namespace
} // namespace skipit
