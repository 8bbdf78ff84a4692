#include "soc.hh"

#include <algorithm>
#include <sstream>

namespace skipit {

SoC::SoC(const SoCConfig &cfg) : cfg_(cfg)
{
    SKIPIT_ASSERT(cfg.cores >= 1 && cfg.cores <= 64,
                  "core count out of range");

    const unsigned slices = std::max(1u, cfg.l2.slices);
    SKIPIT_ASSERT(!cfg.direct_l2_wiring || slices == 1,
                  "direct_l2_wiring requires a single L2 slice");
    const bool parallel = cfg.engine == Simulator::Engine::parallel;
    SKIPIT_ASSERT(!parallel || !cfg.direct_l2_wiring,
                  "the parallel engine requires the crossbar topology");

    dram_ = std::make_unique<Dram>("dram", sim_, cfg.dram, stats_);
    if (!cfg.direct_l2_wiring) {
        // One L2IndexPolicy value feeds both the crossbar's routing and
        // every slice's directory indexing — the single source of truth
        // for where a line homes.
        xbar_ = std::make_unique<TLXbar>("xbar", sim_,
                                         cfg.l2.indexPolicy());
    }
    for (unsigned s = 0; s < slices; ++s) {
        const std::string sn =
            slices == 1 ? "l2" : "l2.s" + std::to_string(s);
        l2s_.push_back(std::make_unique<L2Cache>(
            sn, sim_, cfg.l2, *dram_, stats_, s));
    }

    for (unsigned c = 0; c < cfg.cores; ++c) {
        const std::string cn = "core" + std::to_string(c);
        ChannelJitter jit = cfg.jitter;
        // Stir the core index in so the per-core links draw from
        // unrelated streams even for adjacent base seeds.
        jit.seed = jit.seed * 0x9e3779b97f4a7c15ULL + c + 1;
        links_.push_back(std::make_unique<TLLink>(sim_, cfg.link_latency,
                                                  cn + ".tl", jit));
        if (cfg.direct_l2_wiring)
            l2s_[0]->connectClient(static_cast<AgentId>(c),
                                   *links_.back());
        else
            xbar_->connectClient(static_cast<AgentId>(c), *links_.back());
        l1s_.push_back(std::make_unique<DataCache>(
            cn + ".l1d", sim_, cfg.l1, static_cast<AgentId>(c),
            *links_.back(), stats_));
        lsus_.push_back(std::make_unique<Lsu>(cn + ".lsu", sim_, cfg.lsu,
                                              *l1s_.back(), stats_,
                                              static_cast<AgentId>(c)));
        harts_.push_back(std::make_unique<Hart>(cn + ".hart", sim_,
                                                *lsus_.back(),
                                                cfg.dispatch_width));
    }
    if (!cfg.direct_l2_wiring) {
        for (unsigned s = 0; s < slices; ++s) {
            for (unsigned c = 0; c < cfg.cores; ++c) {
                l2s_[s]->connectPort(static_cast<AgentId>(c),
                                     xbar_->port(s, c));
            }
        }
    }

    // Tick order: memory side first, then the crossbar (so wire
    // arrivals are routed the cycle they land), then caches, then
    // cores. All cross-component traffic flows through >= 1-cycle
    // queues, so the order affects nothing but same-cycle wakeups.
    //
    // Affinities place each component for the parallel engine: DRAM and
    // the crossbar are shared producers (pre phase), the L2 slices form
    // the serial commit phase that pushes responses into the per-core
    // links (mem phase), and each core's L1 + LSU + Hart tick as one
    // lane. The serial engine ignores the affinities; the parallel
    // engine's schedule is bit-identical to it (docs/PARALLELISM.md).
    using Affinity = Simulator::Affinity;
    // The crash freezer ticks before the DRAM controller so a crash
    // freezes the persist-domain image at the *start* of the crash
    // cycle, before any cycle-C writes are accepted or issued. The
    // oracle itself ticks last (post), after the probe hub has flushed
    // the cycle's staged events. Both are pure observers.
    durability_ = std::make_unique<verify::DurabilityOracle>(
        "durability", sim_, cfg.durability);
    freezer_ = std::make_unique<verify::CrashFreezer>("crash-freezer",
                                                      *durability_);
    sim_.add(*freezer_, {Affinity::pre, 0});
    sim_.add(*dram_, {Affinity::pre, 0});
    if (xbar_)
        sim_.add(*xbar_, {Affinity::pre, 0});
    for (auto &l2 : l2s_)
        sim_.add(*l2, {Affinity::mem, 0});
    for (unsigned c = 0; c < cfg.cores; ++c)
        sim_.add(*l1s_[c], {Affinity::lane, c});
    for (unsigned c = 0; c < cfg.cores; ++c)
        sim_.add(*lsus_[c], {Affinity::lane, c});
    for (unsigned c = 0; c < cfg.cores; ++c)
        sim_.add(*harts_[c], {Affinity::lane, c});

    // The watchdog ticks last so it sees each cycle's settled state.
    watchdog_ = std::make_unique<Watchdog>("watchdog", sim_, cfg.watchdog);
    for (auto &l1 : l1s_)
        watchdog_->watch(*l1);
    for (auto &l2 : l2s_)
        watchdog_->watch(*l2);
    sim_.add(*watchdog_, {Affinity::post, 0});

    // The invariant checker ticks after everything (observer only). A
    // skip bit is only meaningful when GrantData vs GrantDataDirty can
    // actually distinguish clean fills; with grant_data_dirty off the
    // sweep axes can produce configurations where it is unsound, so the
    // skip check follows the feature set.
    verify::CheckerConfig vcfg = cfg.verify;
    vcfg.check_skip = vcfg.check_skip && cfg.l1.skip_it &&
                      cfg.l2.grant_data_dirty;
    checker_ = std::make_unique<verify::CoherenceChecker>("checker", sim_,
                                                          vcfg);
    for (auto &l1 : l1s_)
        checker_->addL1(*l1);
    for (auto &l2 : l2s_)
        checker_->setL2(*l2);
    checker_->setDram(*dram_);
    sim_.add(*checker_, {Affinity::post, 0});

    for (auto &l1 : l1s_)
        durability_->addL1(*l1);
    for (auto &l2 : l2s_)
        durability_->setL2(*l2);
    durability_->setDram(*dram_);
    sim_.add(*durability_, {Affinity::post, 0});
    if (cfg.durability.enabled)
        sim_.probes().attach(*durability_);

    // A watchdog stall report triggers a full invariant sweep: is the
    // stall a liveness bug or a symptom of broken coherence? With the
    // durability oracle on, the fatal report also captures what the
    // persist domain would look like if the power failed right here.
    watchdog_->setEscalation([this](std::ostream &os) {
        checker_->escalate(os);
        if (cfg_.durability.enabled)
            durability_->reportSummary(os);
    });

    sim_.setFastForward(cfg.fast_forward);

    if (parallel)
        sim_.setEngine(Simulator::Engine::parallel, cfg.workers);
}

std::string
SoCConfig::describe() const
{
    std::ostringstream os;
    os << "cores: " << cores << "\n"
       << "l1: " << (l1.sets * l1.ways * line_bytes) / 1024 << " KiB, "
       << l1.ways << "-way, " << l1.mshrs << " MSHRs, flush queue "
       << l1.flush_queue_depth << ", " << l1.fshrs << " FSHRs\n"
       << "l1 features: skip-it " << (l1.skip_it ? "on" : "off")
       << ", coalesce " << (l1.coalesce ? "on" : "off")
       << (l1.cross_kind_coalesce ? " (+cross-kind)" : "")
       << ", wide data array "
       << (l1.wide_data_array ? "on" : "off") << "\n"
       << "l2: " << (l2.sets * l2.ways * line_bytes) / 1024 << " KiB, "
       << l2.ways << "-way, " << l2.mshrs << " MSHRs, llc-skip "
       << (l2.llc_skip ? "on" : "off") << ", grant-data-dirty "
       << (l2.grant_data_dirty ? "on" : "off") << "\n"
       << "l2 policies: " << toString(l2.policy) << ", "
       << toString(l2.index) << " index, " << toString(l2.replace)
       << " replacement\n"
       << "topology: "
       << (direct_l2_wiring ? "direct point-to-point"
                            : "crossbar, " +
                                  std::to_string(std::max(1u, l2.slices)) +
                                  " address-interleaved slice" +
                                  (std::max(1u, l2.slices) > 1 ? "s" : ""))
       << "\n"
       << "dram: read " << dram.latency << ", write-ack "
       << dram.write_ack_latency << ", issue interval "
       << dram.issue_interval << "\n"
       << "link latency: " << link_latency << "\n"
       << "engine: "
       << (engine == Simulator::Engine::parallel
               ? "parallel, " +
                     (workers == 0 ? std::string("hw-concurrency")
                                   : std::to_string(workers)) +
                     " workers"
               : std::string("serial"))
       << "\n"
       << "fast-forward: " << (fast_forward ? "on" : "off") << "\n"
       << "checker: " << (verify.enabled ? "on" : "off")
       << (verify.enabled && !verify.fatal ? " (latching)" : "")
       << ", jitter: " << (jitter.enabled ? "on" : "off");
    if (durability.enabled) {
        os << "\ndurability: on";
        if (durability.crash_at != 0)
            os << ", crash at cycle " << durability.crash_at;
        if (!durability.crash_on_stage.empty())
            os << ", crash on stage " << durability.crash_on_stage;
        if (!durability.fatal)
            os << " (latching)";
    }
    if (jitter.enabled) {
        os << " (seed " << jitter.seed << ", max-delay "
           << jitter.max_delay << ", burst " << jitter.burst_chance
           << "x" << jitter.burst_len << ")";
    }
    os << "\n";
    return os.str();
}

Cycle
SoC::runToCompletion(Cycle max_cycles)
{
    const Cycle start = sim_.now();
    sim_.runUntil(
        [&] {
            for (auto &hart : harts_) {
                if (!hart->done())
                    return false;
            }
            return true;
        },
        max_cycles);
    return sim_.now() - start;
}

Cycle
SoC::runToQuiescence(Cycle max_cycles)
{
    const Cycle start = sim_.now();
    sim_.runUntil(
        [&] {
            for (auto &hart : harts_) {
                if (!hart->done())
                    return false;
            }
            for (auto &l1 : l1s_) {
                if (!l1->quiesced())
                    return false;
            }
            return l2Idle();
        },
        max_cycles);
    return sim_.now() - start;
}

bool
SoC::l2Idle() const
{
    if (xbar_ && !xbar_->idle())
        return false;
    for (const auto &l2 : l2s_) {
        if (!l2->idle())
            return false;
    }
    return true;
}

void
SoC::setPrograms(const std::vector<Program> &programs)
{
    SKIPIT_ASSERT(programs.size() <= harts_.size(),
                  "more programs than harts");
    for (std::size_t i = 0; i < programs.size(); ++i)
        harts_[i]->setProgram(programs[i]);
}

} // namespace skipit
