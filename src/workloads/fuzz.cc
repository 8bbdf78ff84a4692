#include "fuzz.hh"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/asm.hh"
#include "sim/logging.hh"
#include "sim/parse.hh"
#include "sim/random.hh"
#include "sim/txn_tracer.hh"

namespace skipit::workloads {

namespace {

/** The word of pool line @p line that hart @p h owns. */
Addr
ownedWord(const FuzzSpec &spec, unsigned h, unsigned line)
{
    return spec.pool_base + static_cast<Addr>(line) * line_bytes +
           (h % 8) * 8;
}

/** A line holds 8 words, so up to 8 harts can share every line. Beyond
 *  that the pool is striped: hart h stores/loads only lines of group
 *  h / 8 (line % groups == h / 8), keeping single-word ownership. */
unsigned
lineGroups(const FuzzSpec &spec)
{
    return (spec.machine.cores + 7) / 8;
}

/**
 * Expected value of each load in @p p, by op index: the hart's last
 * preceding store to the same address (memory starts zeroed).
 */
std::vector<std::pair<std::size_t, std::uint64_t>>
expectedLoads(const Program &p)
{
    std::map<Addr, std::uint64_t> last;
    std::vector<std::pair<std::size_t, std::uint64_t>> out;
    for (std::size_t i = 0; i < p.size(); ++i) {
        if (p[i].kind == MemOpKind::Store)
            last[p[i].addr] = p[i].data;
        else if (p[i].kind == MemOpKind::Load)
            out.emplace_back(i, last.count(p[i].addr) ? last[p[i].addr]
                                                      : 0);
    }
    return out;
}

/**
 * Words whose DRAM value is pinned at quiescence: the hart's last store
 * to the address is followed, in its own program order, by a CBO.CLEAN
 * or CBO.FLUSH of that line. Single-writer ownership means no later
 * writeback (by anyone) can carry an older value of the word.
 */
std::vector<std::pair<Addr, std::uint64_t>>
expectedPersists(const Program &p)
{
    std::map<Addr, std::uint64_t> last;      // addr -> value
    std::map<Addr, bool> written_back;       // addr -> wb after last store
    for (const MemOp &op : p) {
        if (op.kind == MemOpKind::Store) {
            last[op.addr] = op.data;
            written_back[op.addr] = false;
        } else if (op.kind == MemOpKind::CboClean ||
                   op.kind == MemOpKind::CboFlush) {
            const Addr line = op.addr & ~static_cast<Addr>(line_bytes - 1);
            for (auto &[addr, wb] : written_back) {
                if ((addr & ~static_cast<Addr>(line_bytes - 1)) == line)
                    wb = true;
            }
        }
    }
    std::vector<std::pair<Addr, std::uint64_t>> out;
    for (const auto &[addr, wb] : written_back) {
        if (wb)
            out.emplace_back(addr, last[addr]);
    }
    return out;
}

/** Run to the spec's deadline or completion/violation/crash, without
 *  tripping runUntil's deadlock panic. @return true when fully
 *  quiesced. */
bool
runOne(SoC &soc, const FuzzSpec &spec)
{
    const Cycle deadline = soc.sim().now() + spec.max_cycles;
    soc.sim().runUntil(
        [&] {
            return soc.quiesced() || !soc.checker().clean() ||
                   soc.durability().crashed() ||
                   soc.sim().now() >= deadline;
        },
        spec.max_cycles + 1000);
    return soc.quiesced();
}

/** Call @p f(key, field) on each field a replay bundle records but the
 *  machine's table fields, which go through SoCConfig::set(). */
template <typename Spec, typename F>
void
eachBundleField(Spec &spec, F &&f)
{
    f("harts", spec.machine.cores);
    f("ops", spec.ops);
    f("lines", spec.lines);
    f("pool_base", spec.pool_base);
    f("jitter", spec.jitter);
    f("max_delay", spec.max_delay);
    f("max_cycles", spec.max_cycles);
    f("break_probe_invalidate", spec.break_probe_invalidate);
    f("crash_at", spec.crash_at);
}

/**
 * Word-level crash oracle for one hart (see the header comment). The
 * durability oracle counted @p fences retired fences before the crash;
 * fences retire in program order, so the @p fences -th fence op of @p p
 * is the last one known retired. Every CBO older than it completed
 * (its data accepted by the persist domain), so for each owned word the
 * image must hold the value of SOME store at or after the last store
 * that a retired-fence-ordered CBO of its line covered — older values
 * are durability violations, newer ones are legitimately in-flight
 * writebacks the crash happened to preserve.
 *
 * @return the offending (addr, got, oldest-admissible) or nullopt
 */
struct CrashWordMismatch
{
    Addr addr = 0;
    std::uint64_t got = 0;
    std::uint64_t floor_value = 0;
};
std::optional<CrashWordMismatch>
checkCrashWords(const Program &p, std::uint64_t fences,
                const std::unordered_map<Addr, LineData> &image)
{
    // Op index of the last fence known retired (exclusive bound k).
    std::size_t k = 0;
    if (fences > 0) {
        std::uint64_t seen = 0;
        bool found = false;
        for (std::size_t i = 0; i < p.size() && !found; ++i) {
            if (p[i].kind == MemOpKind::Fence && ++seen == fences) {
                k = i;
                found = true;
            }
        }
        SKIPIT_ASSERT(found,
                      "crash oracle: more fences retired than fence ops");
    }

    // Per word: all store values in order, and the index floor_idx of
    // the last store covered by a CBO of its line at some j < k.
    std::map<Addr, std::vector<std::pair<std::size_t, std::uint64_t>>>
        stores;
    std::map<Addr, std::size_t> floor_idx; // index INTO stores[addr]
    for (std::size_t j = 0; j < (fences > 0 ? k : 0); ++j) {
        const MemOp &op = p[j];
        if (op.kind == MemOpKind::Store) {
            stores[op.addr].emplace_back(j, op.data);
        } else if (op.kind == MemOpKind::CboClean ||
                   op.kind == MemOpKind::CboFlush) {
            const Addr line =
                op.addr & ~static_cast<Addr>(line_bytes - 1);
            for (auto &[addr, vals] : stores) {
                if ((addr & ~static_cast<Addr>(line_bytes - 1)) == line &&
                    !vals.empty())
                    floor_idx[addr] = vals.size() - 1;
            }
        }
    }
    // Stores after the fence bound can also be in the image (a crash
    // preserves whatever writebacks happened to land).
    for (std::size_t j = k; j < p.size(); ++j) {
        if (p[j].kind == MemOpKind::Store)
            stores[p[j].addr].emplace_back(j, p[j].data);
    }

    for (const auto &[addr, vals] : stores) {
        const std::uint64_t got = imageWord(image, addr);
        const auto fl = floor_idx.find(addr);
        const std::size_t lo = fl == floor_idx.end() ? 0 : fl->second;
        bool ok = fl == floor_idx.end() && got == 0; // nothing pinned
        for (std::size_t i = lo; !ok && i < vals.size(); ++i)
            ok = vals[i].second == got;
        if (!ok) {
            return CrashWordMismatch{addr, got,
                                     fl == floor_idx.end()
                                         ? 0
                                         : vals[fl->second].second};
        }
    }
    return std::nullopt;
}

} // namespace

std::string
FuzzSpec::check() const
{
    if (std::string err = machine.check(); !err.empty())
        return err;
    if (lines < lineGroups(*this)) {
        // One pool line per ownership group of 8 harts at least.
        return detail::concat("lines must be at least ceil(harts / 8) = ",
                              lineGroups(*this), ", got ", lines);
    }
    return {};
}

SoCConfig
fuzzConfig(const FuzzSpec &spec, std::uint64_t seed)
{
    const std::string err = spec.check();
    SKIPIT_ASSERT(err.empty(), "fuzz: ", err);
    SoCConfig cfg = spec.machine;
    cfg.verify.fatal = false; // latch violations; the harness reports
    cfg.jitter.enabled = spec.jitter;
    cfg.jitter.seed = stirSeed(seed, 0xfa11);
    cfg.jitter.max_delay = spec.max_delay;
    cfg.l1.test_break_probe_invalidate = spec.break_probe_invalidate;
    if (spec.crash_at != 0) {
        cfg.durability.enabled = true;
        cfg.durability.crash_at = spec.crash_at;
        cfg.durability.fatal = false; // latch; the harness reports
    }
    return cfg;
}

std::vector<Program>
generateFuzzPrograms(const FuzzSpec &spec, std::uint64_t seed)
{
    std::vector<Program> programs(spec.machine.cores);
    const unsigned groups = lineGroups(spec);
    for (unsigned h = 0; h < spec.machine.cores; ++h) {
        // The lines hart h touches: its group's stripe of the pool.
        // (The epilogue still flushes every line — flushing another
        // group's line only writes it back, never mutates its words.)
        std::vector<unsigned> owned;
        for (unsigned l = h / 8; l < spec.lines; l += groups)
            owned.push_back(l);
        SKIPIT_ASSERT(!owned.empty(), "fuzz: hart with no owned lines");
        Rng rng(stirSeed(seed, h));
        Program &p = programs[h];
        for (unsigned i = 0; i < spec.ops; ++i) {
            const unsigned line = owned[static_cast<std::size_t>(
                rng.below(owned.size()))];
            const Addr word = ownedWord(spec, h, line);
            const Addr line_addr = spec.pool_base +
                                   static_cast<Addr>(line) * line_bytes;
            const std::uint64_t dice = rng.below(100);
            if (dice < 35)
                p.push_back(MemOp::store(word, rng.next() | 1));
            else if (dice < 60)
                p.push_back(MemOp::load(word));
            else if (dice < 75)
                p.push_back(MemOp::clean(line_addr));
            else if (dice < 90)
                p.push_back(MemOp::flush(line_addr));
            else if (dice < 95)
                p.push_back(MemOp::fence());
            else
                p.push_back(MemOp::compute(rng.range(1, 8)));
        }
        // Epilogue: persist everything, then fence — pins every stored
        // word's DRAM value for the end-state oracle.
        for (unsigned line = 0; line < spec.lines; ++line)
            p.push_back(MemOp::flush(spec.pool_base +
                                     static_cast<Addr>(line) *
                                         line_bytes));
        p.push_back(MemOp::fence());
    }
    return programs;
}

/** runFuzzPrograms, optionally reporting the quiescence cycle of a
 *  clean run (the crash sweep samples crash points from it). */
static std::optional<FuzzFailure>
runProgramsImpl(const FuzzSpec &spec, std::uint64_t seed,
                const std::vector<Program> &programs, Cycle *quiesce)
{
    SKIPIT_ASSERT(programs.size() == spec.machine.cores,
                  "fuzz: one program per hart required");
    SoC soc(fuzzConfig(spec, seed));
    soc.setPrograms(programs);
    const bool settled = runOne(soc, spec);

    const auto fail = [&](std::string kind, std::string detail,
                          Cycle cycle) {
        return FuzzFailure{seed,  std::move(kind), std::move(detail),
                           cycle, spec.crash_at,   programs};
    };

    // 1. Latched invariant violations (structural checks run per tick).
    if (!soc.checker().clean()) {
        const verify::Violation &v = soc.checker().violations().front();
        return fail("invariant",
                    detail::concat("invariant '", v.invariant,
                                   "' violated: ", v.detail),
                    v.cycle);
    }

    // Crash run: the power failed mid-execution. The remaining oracles
    // judge the frozen persist-domain image, not the (never-reached)
    // end state.
    if (spec.crash_at != 0) {
        verify::DurabilityOracle &oracle = soc.durability();
        if (!oracle.crashed()) {
            if (!settled) {
                return fail("hang",
                            detail::concat(
                                "run neither crashed nor settled within ",
                                spec.max_cycles, " cycles"),
                            soc.sim().now());
            }
            // Quiesced before the crash point: the image can no longer
            // change, so audit the final state as the crash image.
            oracle.crashNow();
        }
        if (!oracle.clean()) {
            const verify::Violation &v = oracle.violations().front();
            return fail("crash-durability",
                        detail::concat("durability invariant '",
                                       v.invariant, "' violated: ",
                                       v.detail),
                        v.cycle);
        }
        for (unsigned h = 0; h < spec.machine.cores; ++h) {
            const auto m = checkCrashWords(
                programs[h], oracle.fencesRetired(h), oracle.image());
            if (m) {
                return fail(
                    "crash-value",
                    detail::concat(
                        "hart", h, " word 0x", std::hex, m->addr,
                        " is 0x", m->got, " in the post-crash image, ",
                        "but a fence-observed flush pinned it to a ",
                        "store no older than 0x", m->floor_value),
                    oracle.crashCycle());
            }
        }
        return std::nullopt;
    }

    // 2. Liveness: everything must settle before the deadline.
    if (!settled) {
        std::ostringstream os;
        os << "run did not settle within " << spec.max_cycles
           << " cycles;";
        for (unsigned c = 0; c < soc.cores(); ++c) {
            if (!soc.hart(c).done())
                os << " hart" << c << " stuck at pc "
                   << soc.hart(c).pc();
        }
        return fail("hang", os.str(), soc.sim().now());
    }

    // 3. Full sweep at quiescence (adds the L2-vs-DRAM comparison).
    soc.checker().checkNow();
    if (!soc.checker().clean()) {
        const verify::Violation &v = soc.checker().violations().front();
        return fail("invariant",
                    detail::concat("final sweep: invariant '",
                                   v.invariant, "' violated: ", v.detail),
                    v.cycle);
    }

    // 4. Load values against the per-hart program-order oracle.
    for (unsigned h = 0; h < spec.machine.cores; ++h) {
        for (const auto &[idx, expect] : expectedLoads(programs[h])) {
            const std::uint64_t got = soc.hart(h).loadValue(idx);
            if (got != expect) {
                return fail(
                    "value",
                    detail::concat("hart", h, " op ", idx, " load 0x",
                                   std::hex, programs[h][idx].addr,
                                   " returned 0x", got, ", expected 0x",
                                   expect),
                    soc.sim().now());
            }
        }
    }

    // 5. Persisted end state: every written-back word matches DRAM.
    for (unsigned h = 0; h < spec.machine.cores; ++h) {
        for (const auto &[addr, expect] : expectedPersists(programs[h])) {
            const std::uint64_t got = soc.dram().peekWord(addr);
            if (got != expect) {
                return fail(
                    "persist",
                    detail::concat("hart", h, " word 0x", std::hex, addr,
                                   " persisted as 0x", got,
                                   ", expected 0x", expect),
                    soc.sim().now());
            }
        }
    }

    if (quiesce)
        *quiesce = soc.sim().now();
    return std::nullopt;
}

std::optional<FuzzFailure>
runFuzzPrograms(const FuzzSpec &spec, std::uint64_t seed,
                const std::vector<Program> &programs)
{
    return runProgramsImpl(spec, seed, programs, nullptr);
}

std::optional<FuzzFailure>
runFuzzSeed(const FuzzSpec &spec, std::uint64_t seed)
{
    const std::vector<Program> programs =
        generateFuzzPrograms(spec, seed);
    if (spec.crash_at != 0 || spec.crash_points == 0)
        return runFuzzPrograms(spec, seed, programs);

    // Crash sweep: one clean run establishes the seed's natural length
    // T (and runs the usual end-state oracles), then the power fails at
    // crash_points seed-derived cycles in [1, T].
    FuzzSpec clean = spec;
    clean.crash_points = 0;
    Cycle total = 0;
    if (auto f = runProgramsImpl(clean, seed, programs, &total))
        return f;
    for (unsigned k = 0; k < spec.crash_points; ++k) {
        FuzzSpec crash = spec;
        crash.crash_points = 0;
        crash.crash_at =
            1 + stirSeed(seed, 0xc7a5 + k) % std::max<Cycle>(total, 1);
        if (auto f = runFuzzPrograms(crash, seed, programs))
            return f;
    }
    return std::nullopt;
}

std::optional<FuzzFailure>
runFuzz(const FuzzSpec &spec, std::uint64_t base_seed, unsigned count,
        unsigned jobs)
{
    std::optional<FuzzFailure> best;
    std::mutex mu;
    std::atomic<std::uint64_t> next{0};
    // Once a failure at seed S is known, seeds above S are moot.
    std::atomic<std::uint64_t> cutoff{count};

    const auto worker = [&] {
        for (;;) {
            const std::uint64_t i = next.fetch_add(1);
            if (i >= count || i >= cutoff.load())
                return;
            auto f = runFuzzSeed(spec, base_seed + i);
            if (!f)
                continue;
            std::lock_guard<std::mutex> lock(mu);
            if (!best || f->seed < best->seed) {
                best = std::move(*f);
                std::uint64_t cur = cutoff.load();
                while (i < cur && !cutoff.compare_exchange_weak(cur, i)) {
                }
            }
        }
    };

    jobs = std::max(1u, jobs);
    if (jobs <= 1 || count <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        const unsigned n = std::min(jobs, count);
        pool.reserve(n);
        for (unsigned t = 0; t < n; ++t)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }
    return best;
}

FuzzFailure
shrinkFuzzFailure(const FuzzSpec &in_spec, const FuzzFailure &failure)
{
    // A crash failure only reproduces with the power failing at the
    // same cycle: pin the failure's crash point into the spec.
    FuzzSpec spec = in_spec;
    spec.crash_points = 0;
    spec.crash_at = failure.crash_at;

    FuzzFailure best = failure;
    if (best.programs.empty())
        best.programs = generateFuzzPrograms(spec, best.seed);

    // Greedy ddmin: per hart, try dropping chunks (half, quarter, ...,
    // single op); keep any removal that still reproduces *a* failure.
    // Bounded so pathological cases cannot run away.
    unsigned trials = 0;
    const unsigned max_trials = 500;
    bool improved = true;
    while (improved && trials < max_trials) {
        improved = false;
        for (unsigned h = 0; h < spec.machine.cores; ++h) {
            const std::size_t len = best.programs[h].size();
            for (std::size_t chunk = std::max<std::size_t>(len / 2, 1);
                 chunk >= 1; chunk /= 2) {
                for (std::size_t start = 0;
                     start < best.programs[h].size();) {
                    if (trials >= max_trials)
                        break;
                    std::vector<Program> cand = best.programs;
                    Program &p = cand[h];
                    const std::size_t end =
                        std::min(start + chunk, p.size());
                    p.erase(p.begin() + static_cast<std::ptrdiff_t>(start),
                            p.begin() + static_cast<std::ptrdiff_t>(end));
                    ++trials;
                    if (auto f =
                            runFuzzPrograms(spec, best.seed, cand)) {
                        best = std::move(*f);
                        improved = true;
                        // Same start now names the next chunk; retry.
                    } else {
                        start += chunk;
                    }
                }
                if (chunk == 1)
                    break;
            }
        }
    }
    return best;
}

bool
writeReplayBundle(const FuzzSpec &in_spec, const FuzzFailure &failure,
                  const std::string &dir)
{
    // Pin a crash failure's crash point so --replay re-runs the exact
    // same truncated execution (crash_points is a sweep axis, not part
    // of one run's identity).
    FuzzSpec spec = in_spec;
    spec.crash_points = 0;
    spec.crash_at = failure.crash_at;

    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
        warn("fuzz: cannot create bundle dir ", dir, ": ", ec.message());
        return false;
    }
    const auto write = [&](const std::string &name,
                           const std::string &text) {
        std::ofstream out(dir + "/" + name);
        out << text;
        return static_cast<bool>(out);
    };

    std::ostringstream cfg;
    cfg << "seed " << failure.seed << "\n";
    eachBundleField(spec, [&](const char *key, const auto &v) {
        cfg << key << " " << v << "\n";
    });
    for (const auto &[name, token] : spec.machine.changedFields())
        cfg << name << " " << token << "\n";
    cfg << "# resolved configuration:\n";
    std::istringstream desc(fuzzConfig(spec, failure.seed).describe());
    for (std::string line; std::getline(desc, line);)
        cfg << "# " << line << "\n";
    bool ok = write("config.txt", cfg.str());

    for (std::size_t i = 0; i < failure.programs.size(); ++i) {
        ok = write("core" + std::to_string(i) + ".s",
                   disassembleProgram(failure.programs[i])) &&
             ok;
    }

    // Re-run with the tracer attached for the trace + txn history. The
    // run is deterministic, so this reproduces the failure exactly.
    SoC soc(fuzzConfig(spec, failure.seed));
    TxnTracer tracer;
    soc.sim().probes().attach(tracer);
    soc.setPrograms(failure.programs);
    runOne(soc, spec);
    std::ostringstream trace;
    tracer.writeChromeTrace(trace);
    ok = write("trace.json", trace.str()) && ok;

    std::ostringstream failtxt;
    failtxt << "kind " << failure.kind << "\n"
            << "cycle " << failure.cycle << "\n"
            << "crash_at " << failure.crash_at << "\n"
            << "detail " << failure.detail << "\n";
    if (spec.crash_at != 0)
        soc.durability().reportSummary(failtxt);
    ok = write("failure.txt", failtxt.str()) && ok;

    std::ostringstream hist;
    const TxnId last = soc.sim().probes().lastTxn();
    hist << "failure: " << failure.kind << " @ cycle " << failure.cycle
         << ": " << failure.detail << "\n"
         << "last transaction " << last << ":\n";
    if (last != 0)
        tracer.dumpTxn(last, hist);
    soc.checker().report(hist);
    if (spec.crash_at != 0)
        soc.durability().report(hist);
    ok = write("txn_history.txt", hist.str()) && ok;
    return ok;
}

std::pair<FuzzSpec, std::uint64_t>
readReplayBundle(const std::string &dir, std::vector<Program> &programs)
try {
    const auto fail = [](const auto &...what) {
        throw std::runtime_error(detail::concat(what...));
    };
    std::ifstream in(dir + "/config.txt");
    if (!in)
        fail("cannot open config.txt");
    FuzzSpec spec;
    std::uint64_t seed = 0;
    std::set<std::string> seen;
    for (std::string line; std::getline(in, line);) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string key, token, extra;
        if (!(ls >> key >> token) || ls >> extra)
            fail("malformed line '", line, "' in config.txt");
        if (!seen.insert(key).second)
            fail("key '", key, "' is given more than once in config.txt");
        const auto number = [&](auto &out) {
            using T = std::remove_reference_t<decltype(out)>;
            out = parseField<T>(key, token);
        };
        bool known = key == "seed";
        if (known)
            number(seed);
        eachBundleField(spec, [&](const char *field, auto &v) {
            if (key == field) {
                number(v);
                known = true;
            }
        });
        if (!known && !spec.machine.set(key, token))
            fail("unknown key '", key, "' in config.txt");
    }
    if (const std::string err = spec.check(); !err.empty())
        fail(err);

    programs.clear();
    for (unsigned h = 0; h < spec.machine.cores; ++h) {
        const std::string path =
            dir + "/core" + std::to_string(h) + ".s";
        std::ifstream ps(path);
        if (!ps)
            fail("cannot open core", h, ".s");
        std::stringstream buf;
        buf << ps.rdbuf();
        try {
            programs.push_back(assembleProgram(buf.str()));
        } catch (const std::runtime_error &e) {
            fail("core", h, ".s: ", e.what());
        }
    }
    return {spec, seed};
} catch (const std::runtime_error &e) {
    throw std::runtime_error("fuzz bundle " + dir + ": " + e.what());
}

} // namespace skipit::workloads
