#include "soc.hh"

#include <algorithm>
#include <bit>
#include <sstream>
#include <type_traits>
#include <utility>

#include "sim/parse.hh"
#include "sim/random.hh"

namespace skipit {

SoC::SoC(const SoCConfig &cfg) : cfg_(cfg)
{
    SKIPIT_ASSERT(cfg.cores >= 1 && cfg.cores <= 64,
                  "core count out of range");

    const unsigned slices = std::max(1u, cfg.l2.slices);

    dram_ = std::make_unique<Dram>("dram", sim_, cfg.dram, stats_);
    for (unsigned s = 0; s < slices; ++s) {
        const std::string sn =
            slices == 1 ? "l2" : "l2.s" + std::to_string(s);
        l2s_.push_back(std::make_unique<L2Cache>(
            sn, sim_, cfg.l2, *dram_, stats_, s));
    }

    // One L2IndexPolicy value feeds both every link's routing and every
    // slice's directory indexing — the single source of truth for where
    // a line homes.
    const L2IndexPolicy homes = cfg.l2.indexPolicy();
    for (unsigned c = 0; c < cfg.cores; ++c) {
        const std::string cn = "core" + std::to_string(c);
        ChannelJitter jit = cfg.jitter;
        jit.seed = stirSeed(jit.seed, c); // per-core link streams
        links_.push_back(std::make_unique<TLLink>(
            sim_, cfg.link_latency, cn + ".tl", jit, homes));
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
    for (unsigned s = 0; s < slices; ++s) {
        for (unsigned c = 0; c < cfg.cores; ++c)
            l2s_[s]->connectPort(static_cast<AgentId>(c), *links_[c]);
    }

    // Input edges (Ticked::wakeAt): whatever a component hands another
    // — a message, a response, a state change it reads — wakes the
    // receiver, so fast-forward ticks each only when it is due. A link
    // wakes the home slice of each A, C and E message (connectPort)
    // and the L1 of each B and D message.
    for (unsigned c = 0; c < cfg.cores; ++c) {
        links_[c]->b.setConsumer(*l1s_[c]);
        links_[c]->d.setConsumer(*l1s_[c]);
        l1s_[c]->setRequester(*lsus_[c]);
        lsus_[c]->setDispatcher(*harts_[c]);
    }
    for (auto &l2 : l2s_)
        dram_->addReader(*l2);

    // Tick order: memory side first, then caches, then cores. All
    // cross-component traffic flows through >= 1-cycle queues, so the
    // order affects nothing but same-cycle wakeups.
    //
    // The crash freezer ticks before the DRAM controller so a crash
    // freezes the persist-domain image at the *start* of the crash
    // cycle, before any cycle-C writes are accepted or issued. The
    // oracle itself ticks last, after every event of the cycle has been
    // emitted. Both are pure observers.
    durability_ = std::make_unique<verify::DurabilityOracle>(
        "durability", sim_, cfg.durability);
    freezer_ = std::make_unique<verify::CrashFreezer>("crash-freezer",
                                                      *durability_);
    sim_.add(*freezer_);
    sim_.add(*dram_);
    for (auto &l2 : l2s_)
        sim_.add(*l2);
    for (unsigned c = 0; c < cfg.cores; ++c)
        sim_.add(*l1s_[c]);
    for (unsigned c = 0; c < cfg.cores; ++c)
        sim_.add(*lsus_[c]);
    for (unsigned c = 0; c < cfg.cores; ++c)
        sim_.add(*harts_[c]);

    // The watchdog ticks last so it sees each cycle's settled state.
    watchdog_ = std::make_unique<Watchdog>("watchdog", sim_, cfg.watchdog);
    for (auto &l1 : l1s_)
        watchdog_->watch(*l1);
    for (auto &l2 : l2s_)
        watchdog_->watch(*l2);
    sim_.add(*watchdog_);

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
    sim_.add(*checker_);

    for (auto &l1 : l1s_)
        durability_->addL1(*l1);
    for (auto &l2 : l2s_)
        durability_->setL2(*l2);
    durability_->setDram(*dram_);
    sim_.add(*durability_);
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
       << "topology: " << std::max(1u, l2.slices)
       << " address-interleaved slice" << (l2.slices > 1 ? "s" : "")
       << "\n"
       << "dram: read " << dram.latency << ", write-ack "
       << dram.write_ack_latency << ", issue interval "
       << dram.issue_interval << "\n"
       << "link latency: " << link_latency << "\n"
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

std::string
SoCConfig::check() const
{
    const auto bad = [](const char *field, const char *range,
                        std::uint64_t v) {
        return detail::concat(field, " must be ", range, ", got ", v);
    };
    // Harts, MSHRs, FSHRs, LSU entries and L2 ways are each one bit of a
    // 64-bit mask.
    for (const auto &[field, v] :
         {std::pair{"cores", cores}, {"l1.mshrs", l1.mshrs},
          {"l1.fshrs", l1.fshrs}, {"lsu.window", lsu.window},
          {"l2.ways", l2.ways}, {"l2.mshrs", l2.mshrs}}) {
        if (v < 1 || v > 64)
            return bad(field, "1..64", v);
    }
    for (const auto &[field, v] :
         {std::pair<const char *, std::uint64_t>{"l1.flush_queue_depth",
                                                 l1.flush_queue_depth},
          {"dram.issue_interval", dram.issue_interval},
          {"link_latency", link_latency}}) {
        if (v < 1)
            return bad(field, "at least 1", v);
    }
    // The L1 indexes its sets by mask.
    if (!std::has_single_bit(l1.sets))
        return bad("l1.sets", "a power of two", l1.sets);
    const unsigned n = std::max(1u, l2.slices);
    if ((n & (n - 1)) != 0 || n > l2.sets || l2.sets % n != 0) {
        return detail::concat("l2.slices must be a power of two that "
                              "divides l2.sets (",
                              l2.sets, "), got ", l2.slices);
    }
    return {};
}

namespace {

/** The machine-field table: call @p f(name, field) on each field of
 *  @p c the front ends set by name, in table order. "skipit" is the
 *  skip bit; SoCConfig::set() also copies it to GrantDataDirty. */
template <typename Config, typename F>
void
eachField(Config &c, F &&f)
{
    f("skipit", c.l1.skip_it);
    f("coalesce", c.l1.coalesce);
    f("cross_kind_coalesce", c.l1.cross_kind_coalesce);
    f("wide_data_array", c.l1.wide_data_array);
    f("fshrs", c.l1.fshrs);
    f("flush_queue_depth", c.l1.flush_queue_depth);
    f("mshrs", c.l1.mshrs);
    f("llc_skip", c.l2.llc_skip);
    f("l2_slices", c.l2.slices);
    f("l2_policy", c.l2.policy);
    f("l2_index", c.l2.index);
    f("l2_replace", c.l2.replace);
    f("grant_data_dirty", c.l2.grant_data_dirty);
    f("dram_latency", c.dram.latency);
    f("link_latency", c.link_latency);
    f("fast_forward", c.fast_forward);
}

/** Every table field of @p c as (name, token), in table order. */
std::vector<std::pair<std::string, std::string>>
fieldTokens(const SoCConfig &c)
{
    std::vector<std::pair<std::string, std::string>> out;
    eachField(c, [&](const char *name, const auto &v) {
        if constexpr (std::is_enum_v<std::decay_t<decltype(v)>>)
            out.emplace_back(name, toString(v));
        else
            out.emplace_back(name, std::to_string(v));
    });
    return out;
}

} // namespace

bool
SoCConfig::set(const std::string &name, const std::string &token)
{
    // The whole token: a policy name, or an unsigned integer that fits
    // the field (0 or 1 for a switch).
    bool found = false;
    eachField(*this, [&](const char *field, auto &v) {
        using T = std::decay_t<decltype(v)>;
        if (field != name)
            return;
        found = true;
        if constexpr (std::is_same_v<T, StateKind>)
            v = parseStateKind(token);
        else if constexpr (std::is_same_v<T, IndexKind>)
            v = parseIndexKind(token);
        else if constexpr (std::is_same_v<T, ReplaceKind>)
            v = parseReplaceKind(token);
        else
            v = parseField<T>(name, token);
    });
    if (found && name == "skipit")
        l2.grant_data_dirty = l1.skip_it;
    return found;
}

std::vector<std::pair<std::string, std::string>>
SoCConfig::changedFields() const
{
    std::vector<std::pair<std::string, std::string>> out;
    SoCConfig base;
    const auto mine = fieldTokens(*this);
    for (std::size_t i = 0; i < mine.size(); ++i) {
        if (mine[i] != fieldTokens(base)[i]) {
            base.set(mine[i].first, mine[i].second);
            out.push_back(mine[i]);
        }
    }
    return out;
}

std::vector<std::string>
SoCConfig::fieldNames()
{
    std::vector<std::string> names;
    for (const auto &[name, token] : fieldTokens(SoCConfig{}))
        names.push_back(name);
    return names;
}

std::string
SoCConfig::unknownField(const std::string &name)
{
    std::string fields;
    for (const std::string &f : fieldNames())
        fields += (fields.empty() ? "" : ", ") + f;
    return "unknown machine field '" + name + "' (fields: " + fields + ")";
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
    sim_.runUntil([&] { return quiesced(); }, max_cycles);
    return sim_.now() - start;
}

bool
SoC::quiesced() const
{
    for (const auto &hart : harts_) {
        if (!hart->done())
            return false;
    }
    for (const auto &l1 : l1s_) {
        if (!l1->quiesced())
            return false;
    }
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
