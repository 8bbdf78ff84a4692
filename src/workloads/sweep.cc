#include "sweep.hh"

#include "json.hh"

#include <atomic>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "platform/platform.hh"
#include "sim/parse.hh"
#include "workloads.hh"

namespace skipit::workloads {

namespace {

[[noreturn]] void
fail(const std::string &msg)
{
    throw std::runtime_error(msg);
}

/** An axis value token as a string (numbers verbatim, bools as 0/1). */
std::string
scalarToken(const JsonValue &v)
{
    switch (v.type) {
      case JsonValue::Type::String:
      case JsonValue::Type::Number:
        return v.text;
      case JsonValue::Type::Bool:
        return v.boolean ? "1" : "0";
      default:
        fail("sweep spec: axis values must be scalars");
    }
}

// ---------------------------------------------------------------------
// Value parsing.
// ---------------------------------------------------------------------

/** @p token, a value of axis @p name, as a thread count (>= 1). */
unsigned
parseThreads(const std::string &name, const std::string &token)
{
    const unsigned v = parseField<unsigned>(name, token);
    if (v == 0)
        fail("sweep: axis '" + name + "': needs at least one thread");
    return v;
}

/** @p token, a value of axis @p name, as a percentage in [0, 100]. */
double
parsePercent(const std::string &name, const std::string &token)
{
    const std::optional<double> v = finiteToken(token);
    if (!v)
        fail("sweep: axis '" + name + "': '" + token +
             "' is not a finite number");
    if (*v < 0 || *v > 100)
        fail("sweep: axis '" + name + "': '" + token +
             "' is outside [0, 100]");
    return *v;
}

// ---------------------------------------------------------------------
// Per-kind parameter models.
// ---------------------------------------------------------------------

enum class Kind { Cbo, Wwr, Redundant, Throughput, Platform };

Kind
parseKind(const std::string &kind)
{
    if (kind == "cbo")
        return Kind::Cbo;
    if (kind == "wwr")
        return Kind::Wwr;
    if (kind == "redundant")
        return Kind::Redundant;
    if (kind == "throughput")
        return Kind::Throughput;
    if (kind == "platform")
        return Kind::Platform;
    fail("sweep: unknown kind '" + kind +
         "' (expected cbo, wwr, redundant, throughput or platform)");
}

/** Parameters of the cycle-model kinds (cbo / wwr / redundant). */
struct CycleParams
{
    SoCConfig cfg{};
    unsigned threads = 1;
    std::size_t bytes = 4096;
    bool flush = true;
    unsigned cores = 0; //!< machine size; 0 = one core per thread
};

void
applyCycleParam(CycleParams &p, const std::string &name,
                const std::string &token)
{
    if (name == "threads")
        p.threads = parseThreads(name, token);
    else if (name == "bytes")
        p.bytes = parseField<std::size_t>(name, token);
    else if (name == "flush")
        p.flush = parseField<bool>(name, token);
    else if (name == "cores")
        p.cores = parseField<unsigned>(name, token);
    else if (!p.cfg.set(name, token))
        fail("sweep: " + SoCConfig::unknownField(name));
}

/** Parameters of the throughput kind. */
struct ThroughputParams
{
    DsKind ds = DsKind::Bst;
    FlushPolicy policy = FlushPolicy::SkipIt;
    PersistMode mode = PersistMode::Automatic;
    double update_pct = 5.0;
    unsigned threads = 2;
    Cycle budget = 400'000;
    std::size_t flit_entries = std::size_t{1} << 16;
    std::uint64_t seed = 0;
    bool seed_set = false;
};

DsKind
parseDs(const std::string &token)
{
    if (token == "list")
        return DsKind::List;
    if (token == "hashtable" || token == "hash")
        return DsKind::HashTable;
    if (token == "bst")
        return DsKind::Bst;
    if (token == "skiplist")
        return DsKind::SkipList;
    fail("sweep: unknown ds '" + token +
         "' (expected list, hashtable, bst or skiplist)");
}

FlushPolicy
parsePolicy(const std::string &token)
{
    if (token == "plain")
        return FlushPolicy::Plain;
    if (token == "flit-adjacent")
        return FlushPolicy::FlitAdjacent;
    if (token == "flit-hashtable")
        return FlushPolicy::FlitHashTable;
    if (token == "link-and-persist")
        return FlushPolicy::LinkAndPersist;
    if (token == "skip-it")
        return FlushPolicy::SkipIt;
    fail("sweep: unknown policy '" + token + "'");
}

PersistMode
parseMode(const std::string &token)
{
    if (token == "non-persistent")
        return PersistMode::NonPersistent;
    if (token == "automatic")
        return PersistMode::Automatic;
    if (token == "nvtraverse")
        return PersistMode::NvTraverse;
    if (token == "manual")
        return PersistMode::Manual;
    fail("sweep: unknown mode '" + token + "'");
}

void
applyThroughputParam(ThroughputParams &p, const std::string &name,
                     const std::string &token)
{
    if (name == "ds")
        p.ds = parseDs(token);
    else if (name == "policy")
        p.policy = parsePolicy(token);
    else if (name == "mode")
        p.mode = parseMode(token);
    else if (name == "update_pct")
        p.update_pct = parsePercent(name, token);
    else if (name == "threads")
        p.threads = parseThreads(name, token);
    else if (name == "budget")
        p.budget = parseField(name, token);
    else if (name == "flit_entries")
        p.flit_entries = parseField<std::size_t>(name, token);
    else if (name == "seed") {
        p.seed = parseField(name, token);
        p.seed_set = true;
    } else {
        fail("sweep: unknown axis '" + name + "' for kind throughput");
    }
}

/** Parameters of the platform kind. */
struct PlatformParams
{
    PlatformModel model = platforms::intelXeon6238T();
    WbInstr instr = WbInstr::Flush;
    unsigned threads = 1;
    std::size_t bytes = 4096;
};

void
applyPlatformParam(PlatformParams &p, const std::string &name,
                   const std::string &token)
{
    if (name == "platform") {
        if (token == "intel")
            p.model = platforms::intelXeon6238T();
        else if (token == "amd")
            p.model = platforms::amdEpyc7763();
        else if (token == "graviton")
            p.model = platforms::graviton3();
        else
            fail("sweep: unknown platform '" + token +
                 "' (expected intel, amd or graviton)");
    } else if (name == "instr") {
        if (token == "flush")
            p.instr = WbInstr::Flush;
        else if (token == "flush-serial")
            p.instr = WbInstr::FlushSerial;
        else if (token == "clean")
            p.instr = WbInstr::Clean;
        else
            fail("sweep: unknown instr '" + token +
                 "' (expected flush, flush-serial or clean)");
    } else if (name == "threads") {
        p.threads = parseThreads(name, token);
    } else if (name == "bytes") {
        p.bytes = parseField<std::size_t>(name, token);
    } else {
        fail("sweep: unknown axis '" + name + "' for kind platform");
    }
}

std::vector<std::string>
resultColumns(Kind kind)
{
    if (kind == Kind::Throughput)
        return {"mops_per_mcycle", "ops", "flushes", "skipped_l1"};
    return {"cycles"};
}

/** The parameters of grid point @p pt, applied in axis order. */
template <typename Params>
Params
paramsOf(const SweepPoint &pt,
         void (*apply)(Params &, const std::string &, const std::string &))
{
    Params p;
    for (const auto &[name, token] : pt.params)
        apply(p, name, token);
    return p;
}

/** Execute one grid point and return its result cells. */
std::vector<ReportValue>
runPoint(const SweepSpec &spec, Kind kind, const SweepPoint &pt)
{
    if (kind == Kind::Platform) {
        const PlatformParams p = paramsOf(pt, applyPlatformParam);
        return {p.model.latency(p.bytes, p.threads, p.instr)};
    }
    if (kind == Kind::Throughput) {
        ThroughputParams p = paramsOf(pt, applyThroughputParam);
        if (!p.seed_set)
            p.seed = spec.seed + pt.index;
        // Some combinations don't exist (link-and-persist needs spare
        // pointer bits the BST doesn't have); keep the grid rectangular
        // and mark the row rather than failing the whole sweep.
        if (!applicable(p.ds, p.policy))
            return {std::string("n/a"), std::string("n/a"),
                    std::string("n/a"), std::string("n/a")};
        const ThroughputResult r =
            runThroughput(p.ds, p.policy, p.mode, p.update_pct, p.threads,
                          p.budget, p.flit_entries, p.seed);
        return {r.mops_per_mcycle, r.ops, r.flushes, r.skipped_l1};
    }

    const CycleParams p = paramsOf(pt, applyCycleParam);
    Cycle cycles = 0;
    switch (kind) {
      case Kind::Cbo:
        cycles = cboLatency(p.cfg, p.threads, p.bytes, p.flush, p.cores);
        break;
      case Kind::Wwr:
        cycles = writeWbReadLatency(p.cfg, p.threads, p.bytes, p.flush,
                                    p.cores);
        break;
      default:
        cycles = redundantWbLatency(p.cfg, p.threads, p.bytes, p.flush,
                                    p.cores);
        break;
    }
    return {static_cast<std::uint64_t>(cycles)};
}

/** Reject repeated or unknown axis names, unparsable values and points
 *  whose machine cannot be built, before spawning work. */
void
validatePoints(const SweepSpec &spec, Kind kind,
               const std::vector<SweepPoint> &points)
{
    std::set<std::string> seen;
    for (const SweepAxis &axis : spec.axes) {
        if (!seen.insert(axis.name).second)
            fail("sweep: axis '" + axis.name + "' is given more than once");
    }
    for (const SweepPoint &pt : points) {
        if (kind == Kind::Platform) {
            paramsOf(pt, applyPlatformParam);
            continue;
        }
        if (kind == Kind::Throughput) {
            paramsOf(pt, applyThroughputParam);
            continue;
        }
        // The machine the measurement builds (see cboLatency's cores).
        const CycleParams p = paramsOf(pt, applyCycleParam);
        SoCConfig machine = p.cfg;
        machine.cores = p.cores ? p.cores : p.threads;
        std::string err = machine.check();
        if (err.empty() && p.threads > machine.cores) {
            err = detail::concat("threads must be at most cores (",
                                 machine.cores, "), got ", p.threads);
        }
        if (err.empty())
            continue;
        std::string where;
        for (const auto &[name, token] : pt.params)
            where += (where.empty() ? "" : ", ") + name + "=" + token;
        fail("sweep: run " + std::to_string(pt.index) + " (" + where +
             "): " + err);
    }
}

} // namespace

SweepSpec
SweepSpec::fromJsonText(const std::string &text)
{
    const JsonValue doc = parseJson(text, "sweep spec");
    if (doc.type != JsonValue::Type::Object)
        fail("sweep spec: top level must be a JSON object");

    SweepSpec spec;
    for (const auto &[key, value] : doc.fields) {
        if (key == "kind") {
            if (value.type != JsonValue::Type::String)
                fail("sweep spec: \"kind\" must be a string");
            spec.kind = value.text;
        } else if (key == "seed") {
            if (value.type != JsonValue::Type::Number)
                fail("sweep spec: \"seed\" must be a number");
            spec.seed = parseField("seed", value.text);
        } else if (key == "axes") {
            if (value.type != JsonValue::Type::Object)
                fail("sweep spec: \"axes\" must be an object");
            for (const auto &[axis_name, axis_values] : value.fields) {
                SweepAxis axis;
                axis.name = axis_name;
                if (axis_values.type == JsonValue::Type::Array) {
                    for (const JsonValue &v : axis_values.items)
                        axis.values.push_back(scalarToken(v));
                } else {
                    axis.values.push_back(scalarToken(axis_values));
                }
                spec.axes.push_back(std::move(axis));
            }
        } else {
            fail("sweep spec: unknown key \"" + key + "\"");
        }
    }
    return spec;
}

std::vector<SweepPoint>
expandGrid(const SweepSpec &spec)
{
    std::size_t total = 1;
    for (const SweepAxis &axis : spec.axes) {
        if (axis.values.empty())
            fail("sweep: axis '" + axis.name + "' has no values");
        total *= axis.values.size();
    }

    std::vector<SweepPoint> points;
    points.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
        SweepPoint pt;
        pt.index = i;
        // Mixed-radix decomposition, last axis varying fastest.
        std::size_t rem = i;
        std::size_t radix = total;
        for (const SweepAxis &axis : spec.axes) {
            radix /= axis.values.size();
            const std::size_t digit = rem / radix;
            rem %= radix;
            pt.params.emplace_back(axis.name, axis.values[digit]);
        }
        points.push_back(std::move(pt));
    }
    return points;
}

ReportTable
runSweep(const SweepSpec &spec, unsigned jobs)
{
    const Kind kind = parseKind(spec.kind);
    const std::vector<SweepPoint> points = expandGrid(spec);
    validatePoints(spec, kind, points);

    std::vector<std::vector<ReportValue>> rows(points.size());
    std::vector<std::string> errors(points.size());
    std::atomic<std::size_t> next{0};

    const auto worker = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= points.size())
                return;
            try {
                rows[i] = runPoint(spec, kind, points[i]);
            } catch (const std::exception &e) {
                errors[i] = e.what();
            }
        }
    };

    jobs = std::max(1u, jobs);
    if (jobs <= 1 || points.size() <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        const unsigned n =
            static_cast<unsigned>(std::min<std::size_t>(jobs,
                                                        points.size()));
        pool.reserve(n);
        for (unsigned t = 0; t < n; ++t)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }

    for (std::size_t i = 0; i < points.size(); ++i) {
        if (!errors[i].empty()) {
            fail("sweep: run " + std::to_string(i) + " failed: " +
                 errors[i]);
        }
    }

    std::vector<std::string> columns;
    for (const SweepAxis &axis : spec.axes)
        columns.push_back(axis.name);
    for (std::string &c : resultColumns(kind))
        columns.push_back(std::move(c));

    ReportTable table("sweep: " + spec.kind, columns);
    for (std::size_t i = 0; i < points.size(); ++i) {
        std::vector<ReportValue> row;
        row.reserve(columns.size());
        for (const auto &[axis_name, token] : points[i].params)
            row.emplace_back(token);
        for (ReportValue &v : rows[i])
            row.push_back(std::move(v));
        table.addRow(std::move(row));
    }
    return table;
}

} // namespace skipit::workloads
