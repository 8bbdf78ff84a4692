#include "ycsb.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "json.hh"
#include "kv/store.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"
#include "sim/txn_tracer.hh"
#include "soc/soc.hh"

namespace skipit::workloads {

namespace {

std::uint64_t
stir(std::uint64_t seed, std::uint64_t salt)
{
    return mix64(seed * 0x2545f4914f6cdd1dULL + salt);
}

/** Operation fractions of one mix (read + update + insert + scan = 1). */
struct MixDef
{
    double read, update, insert, scan;
    bool latest; //!< reads target recent keys (mix D)
};

MixDef
mixDef(const std::string &mix)
{
    if (mix == "A")
        return {0.50, 0.50, 0.00, 0.00, false};
    if (mix == "B")
        return {0.95, 0.05, 0.00, 0.00, false};
    if (mix == "C")
        return {1.00, 0.00, 0.00, 0.00, false};
    if (mix == "D")
        return {0.95, 0.00, 0.05, 0.00, true};
    if (mix == "E")
        return {0.00, 0.00, 0.05, 0.95, false};
    throw std::runtime_error("kv: unknown mix '" + mix +
                             "' (expected A..E)");
}

enum class OpKind { Read, Update, Insert, Scan };

const char *
opName(OpKind k)
{
    switch (k) {
      case OpKind::Read:
        return "read";
      case OpKind::Update:
        return "update";
      case OpKind::Insert:
        return "insert";
      case OpKind::Scan:
        return "scan";
    }
    return "?";
}

/** One planned operation (key/len resolved before any emission). */
struct OpPlan
{
    OpKind kind;
    std::uint64_t key = 0;
    unsigned len = 0; //!< scan length
};

void
validate(const KvSpec &spec)
{
    mixDef(spec.mix); // throws on an unknown mix
    if (spec.keys == 0)
        throw std::runtime_error("kv: keys must be >= 1");
    if (const std::string err = kvMachineConfig(spec).check(); !err.empty())
        throw std::runtime_error("kv: " + err);
    if (spec.distribution != "zipfian" && spec.distribution != "uniform")
        throw std::runtime_error("kv: distribution must be zipfian or "
                                 "uniform");
    if (spec.distribution == "zipfian" &&
        (spec.theta <= 0.0 || spec.theta >= 1.0))
        throw std::runtime_error("kv: theta must be in (0, 1)");
    if (spec.scan_len == 0)
        throw std::runtime_error("kv: scan_len must be >= 1");
}

/**
 * Plan one hart's op stream. Key ranks map to keys through a seed-derived
 * permutation (YCSB's "scrambled" zipfian: the hot set is spread over the
 * keyspace instead of clustering at the low keys, which would cluster it
 * in the node arena too).
 */
std::vector<OpPlan>
planOps(const KvSpec &spec, const ZipfianGen *zipf,
        const std::vector<std::uint64_t> &perm, unsigned hart)
{
    const MixDef mix = mixDef(spec.mix);
    Rng rng(stir(spec.seed, 0x9cb0'0000ULL + hart));
    std::vector<OpPlan> plan;
    plan.reserve(spec.ops);
    std::uint64_t cur_keys = spec.keys;
    for (std::uint64_t i = 0; i < spec.ops; ++i) {
        const double dice = rng.uniform();
        OpPlan op;
        if (dice < mix.read)
            op.kind = OpKind::Read;
        else if (dice < mix.read + mix.update)
            op.kind = OpKind::Update;
        else if (dice < mix.read + mix.update + mix.insert)
            op.kind = OpKind::Insert;
        else
            op.kind = OpKind::Scan;

        if (op.kind == OpKind::Insert) {
            ++cur_keys; // key assigned by the store at emission
        } else {
            std::uint64_t key;
            if (zipf == nullptr) {
                key = 1 + rng.below(cur_keys);
            } else {
                const std::uint64_t rank = zipf->sample(rng);
                if (mix.latest) {
                    // Read-latest: rank 0 is the newest key.
                    key = cur_keys - std::min(rank, cur_keys - 1);
                } else {
                    // Ranks beyond the prefilled keyspace (inserted
                    // keys) fold back onto the permutation.
                    key = perm[rank % perm.size()];
                }
            }
            op.key = key;
            if (op.kind == OpKind::Scan)
                op.len = 1 + static_cast<unsigned>(
                                 rng.below(spec.scan_len));
        }
        plan.push_back(op);
    }
    return plan;
}

/** Emit one hart's program: arrival gates, markers, and the op traces. */
Program
emitProgram(const KvSpec &spec, kv::KvStore &store,
            const std::vector<OpPlan> &plan)
{
    Program prog;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        if (spec.arrival_period > 0)
            prog.push_back(MemOp::waitUntil(
                static_cast<Cycle>(i) * spec.arrival_period));
        prog.push_back(MemOp::marker(2 * i));
        const OpPlan &op = plan[i];
        switch (op.kind) {
          case OpKind::Read:
            store.emitGet(prog, op.key);
            break;
          case OpKind::Update:
            store.emitUpdate(prog, op.key);
            break;
          case OpKind::Insert:
            store.emitInsert(prog);
            break;
          case OpKind::Scan:
            store.emitScan(prog, op.key, op.len);
            break;
        }
        prog.push_back(MemOp::marker(2 * i + 1));
        if (spec.checkpoint_every != 0 &&
            (i + 1) % spec.checkpoint_every == 0)
            store.emitCheckpoint(prog);
    }
    return prog;
}

/** A serve's host-side inputs, built before the machine exists. */
struct KvInputs
{
    std::vector<std::unique_ptr<kv::KvStore>> stores;
    std::vector<std::vector<OpPlan>> plans;
    std::vector<Program> programs;
};

KvInputs
planServe(const KvSpec &spec)
{
    // The rank→key scramble, shared by all harts (each hart has its own
    // keyspace, so sharing the permutation shares only the *shape* of
    // the hot set).
    std::vector<std::uint64_t> perm(spec.keys);
    std::iota(perm.begin(), perm.end(), 1);
    Rng prng(stir(spec.seed, 0x5ca3b1e));
    for (std::size_t i = perm.size(); i > 1; --i)
        std::swap(perm[i - 1], perm[prng.below(i)]);

    std::unique_ptr<ZipfianGen> zipf;
    if (spec.distribution == "zipfian")
        zipf = std::make_unique<ZipfianGen>(spec.keys, spec.theta);

    // Build the stores and their op traces (host-side, machine-free).
    KvInputs in;
    for (unsigned h = 0; h < spec.cores; ++h) {
        kv::KvStoreConfig scfg;
        scfg.hart = h;
        scfg.value_bytes = spec.value_bytes;
        auto store = std::make_unique<kv::KvStore>(scfg);
        store->prefill(spec.keys);
        in.plans.push_back(planOps(spec, zipf.get(), perm, h));
        in.programs.push_back(emitProgram(spec, *store, in.plans.back()));
        in.stores.push_back(std::move(store));
    }
    return in;
}

void
loadServe(SoC &soc, const KvInputs &in)
{
    // Start against the recovered store image with cold caches.
    for (const auto &store : in.stores) {
        for (const auto &[addr, line] : store->image())
            soc.dram().pokeLine(addr, line);
    }
    for (unsigned h = 0; h < in.programs.size(); ++h)
        soc.hart(h).setProgram(in.programs[h]);
}

/** @p v is a JSON number written as plain decimal digits (no sign,
 *  fraction or exponent) whose value is at most @p max. */
bool
isUnsigned(const JsonValue &v, std::uint64_t max)
{
    if (v.type != JsonValue::Type::Number || v.text.empty() ||
        !std::all_of(v.text.begin(), v.text.end(),
                     [](char c) { return c >= '0' && c <= '9'; }))
        return false;
    errno = 0;
    const unsigned long long x = std::strtoull(v.text.c_str(), nullptr, 10);
    return errno == 0 && x <= max;
}

} // namespace

void
auditKvRecovery(const KvSpec &spec, const kv::KvStore &store,
                unsigned hart,
                const std::unordered_map<Addr, LineData> &image,
                std::vector<std::string> &out)
{
    const Addr base = kv::KvLayout::baseFor(hart);
    const Addr node_lo = base + kv::KvLayout::node_off;
    const Addr log_lo = base + kv::KvLayout::log_off;
    const Addr region_hi = base + kv::KvLayout::region_stride;
    const unsigned value_words = std::max(1u, (spec.value_bytes + 7) / 8);
    const auto fail = [&](const std::string &msg) {
        out.push_back("hart" + std::to_string(hart) + ": " + msg);
    };
    const auto word = [&](Addr addr) { return imageWord(image, addr); };

    // The head sentinel is the first node-arena allocation.
    Addr node = node_lo;
    std::uint64_t prev_key = 0;
    std::uint64_t reachable = 0;
    const std::uint64_t limit = store.keyCount() + 2;
    for (std::uint64_t steps = 0; steps <= limit; ++steps) {
        const Addr next = word(node + 24); // next[0]
        if (next == 0)
            return; // end of chain: every reachable node checked out
        if (next < node_lo || next >= log_lo || next % 8 != 0) {
            fail("next pointer escapes the node arena");
            return;
        }
        node = next;
        const std::uint64_t key = word(node);
        const std::uint64_t level = word(node + 16);
        const Addr vptr = word(node + 8);
        if (key <= prev_key || key > store.keyCount()) {
            fail("reachable node has a corrupt key (torn node init)");
            return;
        }
        prev_key = key;
        if (level < 1 || level > kv::KvStore::max_level) {
            fail("reachable node has a corrupt level word");
            return;
        }
        if (vptr < log_lo || vptr >= region_hi || vptr % 8 != 0) {
            fail("reachable node's value pointer is not a word of the "
                 "log");
            return;
        }
        // The record the pointer exposes must be durable and consistent.
        const std::uint64_t rkey = word(vptr);
        const std::uint64_t rver = word(vptr + 8);
        if (rkey != key) {
            fail("value record key does not match its node "
                 "(pointer published before the record was durable)");
            return;
        }
        if (rver > store.version(key)) {
            fail("value record version exceeds the mirror's");
            return;
        }
        for (unsigned w = 0; w < value_words; ++w) {
            if (word(vptr + 16 + 8 * w) !=
                kv::KvStore::valueWord(key, rver, w)) {
                fail("torn value record exposed by the index");
                return;
            }
        }
        ++reachable;
    }
    fail("bottom-level chain did not terminate (cyclic or corrupt)");
    (void)reachable;
}

ZipfianGen::ZipfianGen(std::uint64_t n, double theta)
    : n_(n), theta_(theta)
{
    SKIPIT_ASSERT(n >= 1, "zipfian: n must be >= 1");
    SKIPIT_ASSERT(theta > 0.0 && theta < 1.0,
                  "zipfian: theta must be in (0, 1)");
    // Exact inverse-CDF sampling. YCSB's closed-form transform (Gray et
    // al.) avoids this precomputation so it can grow n on the fly, at
    // the cost of a visible distribution error for small n; our n is
    // fixed at construction, so we can afford exactness — which is what
    // lets the chi-square tests hold the sampler to the true pmf.
    cdf_.reserve(n_);
    double zeta = 0.0;
    for (std::uint64_t i = 1; i <= n_; ++i) {
        zeta += 1.0 / std::pow(static_cast<double>(i), theta_);
        cdf_.push_back(zeta);
    }
    zetan_ = zeta;
    for (double &c : cdf_)
        c /= zetan_;
    cdf_.back() = 1.0;
}

std::uint64_t
ZipfianGen::sample(Rng &rng) const
{
    const double u = rng.uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::uint64_t>(it - cdf_.begin());
}

double
ZipfianGen::probability(std::uint64_t rank) const
{
    SKIPIT_ASSERT(rank < n_, "zipfian: rank out of range");
    return 1.0 /
           (std::pow(static_cast<double>(rank + 1), theta_) * zetan_);
}

SoCConfig
kvMachineConfig(const KvSpec &spec)
{
    SoCConfig cfg = spec.machine;
    cfg.cores = spec.cores;
    cfg.l2.slices = std::max(1u, spec.slices);
    cfg.withSkipIt(spec.skipit);
    if (spec.crash_at > 0) {
        cfg.durability.enabled = true;
        cfg.durability.crash_at = spec.crash_at;
        cfg.durability.fatal = false; // latch; we report the verdict
    }
    return cfg;
}

void
loadKvServe(const KvSpec &spec, SoC &soc)
{
    validate(spec);
    loadServe(soc, planServe(spec));
}

KvRunResult
runKv(const KvSpec &spec)
{
    validate(spec);
    const KvInputs in = planServe(spec);
    SoC soc(kvMachineConfig(spec));

    TxnTracer tracer(/*keep_events=*/false);
    if (spec.trace_stages)
        soc.sim().probes().attach(tracer);
    loadServe(soc, in);

    KvRunResult res;
    if (spec.crash_at == 0) {
        res.cycles = soc.runToQuiescence(spec.max_cycles);
    } else {
        // Crash run: stop at the power failure (or at quiescence, if
        // the machine drained first).
        const Cycle start = soc.sim().now();
        soc.sim().runUntil(
            [&] {
                return soc.quiesced() || soc.durability().crashed() ||
                       soc.sim().now() >= start + spec.max_cycles;
            },
            spec.max_cycles + 1000);
        res.cycles = soc.sim().now() - start;

        verify::DurabilityOracle &oracle = soc.durability();
        if (!oracle.crashed())
            oracle.crashNow(); // drained first: audit the final image
        res.crashed = oracle.crashed();
        res.oracle_violations = oracle.violations().size();
        const auto image = oracle.image();
        for (unsigned h = 0; h < spec.cores; ++h)
            auditKvRecovery(spec, *in.stores[h], h, image,
                            res.recovery_violations);
        return res; // latency/throughput are meaningless mid-crash
    }

    // Harvest per-op latencies from the RDCYCLE marker pairs.
    for (unsigned h = 0; h < spec.cores; ++h) {
        Hart &hart = soc.hart(h);
        for (std::size_t i = 0; i < in.plans[h].size(); ++i) {
            const Cycle end = hart.markerCycle(2 * i + 1);
            const Cycle from =
                spec.arrival_period > 0
                    ? static_cast<Cycle>(i) * spec.arrival_period
                    : hart.markerCycle(2 * i);
            const auto lat = static_cast<double>(end - from);
            res.latency.add(lat);
            res.by_op[opName(in.plans[h][i].kind)].add(lat);
        }
        res.total_ops += in.plans[h].size();
    }
    res.ops_per_kcycle =
        res.cycles == 0 ? 0.0
                        : static_cast<double>(res.total_ops) * 1000.0 /
                              static_cast<double>(res.cycles);
    for (unsigned h = 0; h < spec.cores; ++h) {
        const std::string p = "l1." + std::to_string(h) + ".";
        res.cbo_cleans += soc.stats().get(p + "cbo_clean_accepted");
        res.skip_drops += soc.stats().get(p + "skipit_dropped");
    }
    if (spec.trace_stages)
        res.stages = tracer.histograms();
    return res;
}

KvBenchSpec
KvBenchSpec::fromJsonText(const std::string &text)
{
    const JsonValue doc = parseJson(text, "kv bench spec");
    if (doc.type != JsonValue::Type::Object)
        throw std::runtime_error("kv bench spec: top level must be an "
                                 "object");
    KvBenchSpec spec;
    std::set<std::string> kv_keys; // the keys read below
    const auto find = [&](const char *name) {
        kv_keys.insert(name);
        return doc.field(name);
    };
    // Integer fields take plain unsigned integers that fit the field.
    const auto setUnsigned = [](const char *name, const JsonValue &v,
                                auto &out) {
        using T = std::decay_t<decltype(out)>;
        if (!isUnsigned(v, std::numeric_limits<T>::max()))
            throw std::runtime_error(
                std::string("kv bench spec: '") + name + "' must be an "
                "unsigned integer that fits its field, got '" + v.text +
                "'");
        out = static_cast<T>(std::strtoull(v.text.c_str(), nullptr, 10));
    };
    const auto field = [&](const char *name, auto &out) {
        if (const JsonValue *v = find(name))
            setUnsigned(name, *v, out);
    };
    field("keys", spec.base.keys);
    field("ops", spec.base.ops);
    field("seed", spec.base.seed);
    field("value_bytes", spec.base.value_bytes);
    field("arrival_period", spec.base.arrival_period);
    field("slices", spec.base.slices);
    field("scan_len", spec.base.scan_len);
    field("checkpoint_every", spec.base.checkpoint_every);
    if (const JsonValue *v = find("theta")) {
        char *end = nullptr;
        const double theta = std::strtod(v->text.c_str(), &end);
        if (v->type != JsonValue::Type::Number || *end != '\0' ||
            !std::isfinite(theta))
            throw std::runtime_error("kv bench spec: 'theta' must be a "
                                     "number");
        spec.base.theta = theta;
    }
    if (const JsonValue *v = find("distribution")) {
        if (v->type != JsonValue::Type::String)
            throw std::runtime_error("kv bench spec: 'distribution' must "
                                     "be a string");
        spec.base.distribution = v->text;
    }
    if (const JsonValue *v = find("mixes")) {
        if (v->type != JsonValue::Type::Array)
            throw std::runtime_error("kv bench spec: 'mixes' must be an "
                                     "array");
        spec.mixes.clear();
        for (const JsonValue &m : v->items) {
            if (m.type != JsonValue::Type::String)
                throw std::runtime_error("kv bench spec: mixes entries "
                                         "must be strings");
            spec.mixes.push_back(m.text);
        }
    }
    if (const JsonValue *v = find("cores")) {
        if (v->type != JsonValue::Type::Array)
            throw std::runtime_error("kv bench spec: 'cores' must be an "
                                     "array");
        spec.cores.clear();
        for (const JsonValue &c : v->items) {
            spec.cores.emplace_back();
            setUnsigned("cores", c, spec.cores.back());
        }
    }
    // Every other key is a machine field (a bool is 0 or 1).
    std::set<std::string> seen;
    for (const auto &[key, v] : doc.fields) {
        if (!seen.insert(key).second)
            throw std::runtime_error("kv bench spec: key '" + key +
                                     "' is given more than once");
        const std::string token = v.type == JsonValue::Type::Bool
                                      ? (v.boolean ? "1" : "0")
                                      : v.text;
        if (!kv_keys.count(key) && !spec.base.setMachine(key, token))
            throw std::runtime_error("kv bench spec: " +
                                     SoCConfig::unknownField(key));
    }
    spec.checkGrid();
    return spec;
}

bool
KvSpec::setMachine(const std::string &name, const std::string &token)
{
    if (name == "l2_slices" || name == "skipit" || name == "grant_data_dirty")
        throw std::runtime_error(
            "kv: " + name + " is the grid's to set: the slice count is "
            "--slices (spec key \"slices\"), and every point is served "
            "with the skip bit on and off");
    return machine.set(name, token);
}

void
KvBenchSpec::checkGrid() const
{
    if (mixes.empty())
        throw std::runtime_error("kv bench spec: 'mixes' must not be empty");
    if (cores.empty())
        throw std::runtime_error("kv bench spec: 'cores' must not be empty");
}

KvBenchResult
runKvBench(const KvBenchSpec &spec)
{
    KvBenchResult result;
    result.spec = spec;
    for (const std::string &mix : spec.mixes) {
        for (const unsigned cores : spec.cores) {
            KvSpec s = spec.base;
            s.mix = mix;
            s.cores = cores;
            KvBenchRow row;
            row.mix = mix;
            row.cores = cores;
            s.skipit = true;
            row.on = runKv(s);
            s.skipit = false;
            row.off = runKv(s);
            result.rows.push_back(std::move(row));
        }
    }
    return result;
}

namespace {

/** Fixed-precision number rendering: deterministic bytes for identical
 *  doubles (no locale, no %g precision surprises). */
std::string
jnum(double v)
{
    if (std::isnan(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    std::string s(buf);
    while (s.size() > 1 && s.back() == '0')
        s.pop_back();
    if (!s.empty() && s.back() == '.')
        s.pop_back();
    return s;
}

void
writeHistogram(std::ostream &os, const Histogram &h,
               const std::string &indent)
{
    os << "{\n"
       << indent << "  \"count\": " << h.count() << ",\n"
       << indent << "  \"mean\": " << jnum(h.mean()) << ",\n"
       << indent << "  \"p50\": " << jnum(h.percentile(50)) << ",\n"
       << indent << "  \"p90\": " << jnum(h.percentile(90)) << ",\n"
       << indent << "  \"p99\": " << jnum(h.percentile(99)) << ",\n"
       << indent << "  \"max\": " << jnum(h.max()) << "\n"
       << indent << "}";
}

void
writeRun(std::ostream &os, const KvBenchRow &row, bool skipit)
{
    const KvRunResult &r = skipit ? row.on : row.off;
    os << "    {\n"
       << "      \"mix\": \"" << row.mix << "\",\n"
       << "      \"cores\": " << row.cores << ",\n"
       << "      \"skipit\": " << (skipit ? "true" : "false") << ",\n"
       << "      \"cycles\": " << r.cycles << ",\n"
       << "      \"ops\": " << r.total_ops << ",\n"
       << "      \"ops_per_kcycle\": " << jnum(r.ops_per_kcycle) << ",\n"
       << "      \"cbo_cleans\": " << r.cbo_cleans << ",\n"
       << "      \"skip_drops\": " << r.skip_drops << ",\n"
       << "      \"latency\": ";
    writeHistogram(os, r.latency, "      ");
    os << ",\n      \"by_op\": {";
    bool first = true;
    for (const auto &[name, hist] : r.by_op) {
        os << (first ? "\n" : ",\n") << "        \"" << name << "\": ";
        writeHistogram(os, hist, "        ");
        first = false;
    }
    os << (first ? "}" : "\n      }") << "\n    }";
}

} // namespace

void
writeKvBenchJson(const KvBenchResult &result, std::ostream &os)
{
    const KvSpec &b = result.spec.base;
    os << "{\n"
       << "  \"schema\": \"skipit-kv-bench-v1\",\n"
       << "  \"config\": {\n"
       << "    \"seed\": " << b.seed << ",\n"
       << "    \"keys\": " << b.keys << ",\n"
       << "    \"ops\": " << b.ops << ",\n"
       << "    \"value_bytes\": " << b.value_bytes << ",\n"
       << "    \"arrival_period\": " << b.arrival_period << ",\n"
       << "    \"distribution\": \"" << b.distribution << "\",\n"
       << "    \"theta\": " << jnum(b.theta) << ",\n"
       << "    \"slices\": " << b.slices << ",\n";
    // Machine fields print only when non-default, so the default config
    // keeps the golden bytes; numbers stay numbers, so the block parses
    // back as a spec.
    for (const auto &[name, token] : b.machine.changedFields()) {
        const char *quote = unsignedToken(token) ? "" : "\"";
        os << "    \"" << name << "\": " << quote << token << quote << ",\n";
    }
    os << "    \"scan_len\": " << b.scan_len << ",\n"
       << "    \"checkpoint_every\": " << b.checkpoint_every << "\n"
       << "  },\n"
       << "  \"runs\": [\n";
    for (std::size_t i = 0; i < result.rows.size(); ++i) {
        writeRun(os, result.rows[i], true);
        os << ",\n";
        writeRun(os, result.rows[i], false);
        os << (i + 1 < result.rows.size() ? ",\n" : "\n");
    }
    os << "  ],\n  \"comparisons\": [\n";
    for (std::size_t i = 0; i < result.rows.size(); ++i) {
        const KvBenchRow &row = result.rows[i];
        const double cyc_on = static_cast<double>(row.on.cycles);
        const double cyc_off = static_cast<double>(row.off.cycles);
        const double reduction =
            cyc_off == 0.0 ? 0.0 : 100.0 * (cyc_off - cyc_on) / cyc_off;
        const double drop_pct =
            row.on.cbo_cleans == 0
                ? 0.0
                : 100.0 * static_cast<double>(row.on.skip_drops) /
                      static_cast<double>(row.on.cbo_cleans);
        os << "    {\n"
           << "      \"mix\": \"" << row.mix << "\",\n"
           << "      \"cores\": " << row.cores << ",\n"
           << "      \"cycles_on\": " << row.on.cycles << ",\n"
           << "      \"cycles_off\": " << row.off.cycles << ",\n"
           << "      \"cycle_reduction_pct\": " << jnum(reduction)
           << ",\n"
           << "      \"cleans_dropped_pct\": " << jnum(drop_pct) << ",\n"
           << "      \"p99_on\": " << jnum(row.on.latency.percentile(99))
           << ",\n"
           << "      \"p99_off\": "
           << jnum(row.off.latency.percentile(99)) << ",\n"
           << "      \"throughput_on\": " << jnum(row.on.ops_per_kcycle)
           << ",\n"
           << "      \"throughput_off\": "
           << jnum(row.off.ops_per_kcycle) << "\n"
           << "    }" << (i + 1 < result.rows.size() ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
}

} // namespace skipit::workloads
