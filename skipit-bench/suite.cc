#include "suite.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "kv/store.hh"
#include "sim/random.hh"
#include "sim/txn_tracer.hh"
#include "soc/soc.hh"
#include "workloads/sweep.hh"
#include "workloads/workloads.hh"
#include "workloads/ycsb.hh"

namespace skipit::benchsuite {

namespace {

const auto process_start = std::chrono::steady_clock::now();

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Sum of the per-instance counters "<scope>.<i>.<name>" (or, for LSUs,
 *  "core<i>.lsu.<name>") over every instance. */
double
sumCounter(const Stats &stats, const std::string &prefix,
           const std::string &suffix)
{
    std::uint64_t total = 0;
    for (const auto &[name, value] : stats.byPrefix(prefix)) {
        if (name.size() >= suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            total += value;
    }
    return static_cast<double>(total);
}

// ---------------------------------------------------------------------
// kv-update / kv-read: open-loop YCSB serves through runKv.
// ---------------------------------------------------------------------

/** Requests are due every 600 cycles per hart, about half the closed-loop
 *  service rate of both mixes (~300 cycles per op). Queueing still shows
 *  in the tail, but at 400 (~70 %) some seeds fall into backlog episodes
 *  that move p95 by 2-4x from seed to seed. */
constexpr Cycle kv_period = 600;

/** A request slower than this misses the serving limit. */
constexpr double kv_slo_cycles = 2000;

class KvServe final : public Workload
{
  public:
    KvServe(bool update, std::uint64_t seed)
    {
        spec_.cores = 2;
        spec_.slices = 1;
        spec_.arrival_period = kv_period;
        spec_.checkpoint_every = 16;
        spec_.skipit = true;
        spec_.seed = seed;
        if (update) {
            // Hot zipfian set that fits in the caches; every update is a
            // fenced CBO.CLEAN commit, every 16th op a re-clean checkpoint.
            spec_.mix = "A";
            spec_.keys = 1024;
            spec_.ops = 512;
            spec_.distribution = "zipfian";
            spec_.theta = 0.99;
        } else {
            // Uniform reads over ~3x the L2: no CBOs, misses to DRAM.
            spec_.mix = "C";
            spec_.keys = 4096;
            spec_.ops = 512;
            spec_.distribution = "uniform";
        }
    }

    void
    setup(SpanLog &spans) override
    {
        // The same public set-up calls runKv makes, without the run.
        std::vector<std::unique_ptr<kv::KvStore>> stores;
        spans.time("inputs", [&] {
            for (unsigned h = 0; h < spec_.cores; ++h) {
                kv::KvStoreConfig cfg;
                cfg.hart = h;
                cfg.value_bytes = spec_.value_bytes;
                stores.push_back(std::make_unique<kv::KvStore>(cfg));
                stores.back()->prefill(spec_.keys);
            }
        });
        auto soc = spans.time("soc_build", [&] {
            SoCConfig cfg;
            cfg.cores = spec_.cores;
            cfg.l2.slices = spec_.slices;
            cfg.withSkipIt(spec_.skipit);
            return std::make_unique<SoC>(cfg);
        });
        spans.time("load", [&] {
            for (const auto &store : stores) {
                for (const auto &[addr, line] : store->image())
                    soc->dram().pokeLine(addr, line);
            }
        });
    }

    RepResult
    run(SpanLog &spans, bool traced) override
    {
        workloads::KvSpec spec = spec_;
        spec.trace_stages = traced;
        const workloads::KvRunResult r =
            spans.time("run", [&] { return workloads::runKv(spec); });

        RepResult rep;
        rep.cycles = r.cycles;
        rep.units = spec.ops * spec.cores;
        rep.latencies = r.latency.samples().samples();
        if (rep.latencies.size() != rep.units || r.total_ops != rep.units) {
            rep.failed = rep.units - std::min<std::uint64_t>(
                                         rep.units, rep.latencies.size());
            rep.errors.push_back(
                "kv: " + std::to_string(rep.latencies.size()) +
                " latencies for " + std::to_string(rep.units) + " ops");
        }
        const auto slow = std::count_if(
            rep.latencies.begin(), rep.latencies.end(),
            [](double lat) { return lat > kv_slo_cycles; });
        rep.values["kv_slo_miss_pct"] =
            100.0 * static_cast<double>(slow + rep.failed) /
            static_cast<double>(rep.units);
        rep.values["l1.cbo_cleans"] = static_cast<double>(r.cbo_cleans);
        rep.values["l1.skip_drops"] = static_cast<double>(r.skip_drops);
        rep.stages = r.stages;
        return rep;
    }

  private:
    workloads::KvSpec spec_;
};

// ---------------------------------------------------------------------
// wb-storm: 16 harts dirty private regions and CBO.FLUSH them repeatedly.
// ---------------------------------------------------------------------

constexpr unsigned storm_cores = 16;
constexpr unsigned storm_slices = 4;
constexpr unsigned storm_lines = 256; // 16 KiB per hart
constexpr unsigned storm_passes = 8;
/** bench/manycore's cycle count, which seed 0 reproduces. */
constexpr Cycle storm_seed0_cycles = 33545;

class WbStorm final : public Workload
{
  public:
    explicit WbStorm(std::uint64_t seed)
    {
        // Seed 0 is bench/manycore exactly. Other seeds move each hart's
        // region to a random line offset, which changes the L2 set, slice
        // and DRAM mapping of every line but not the amount of work.
        Rng rng(seed);
        for (unsigned c = 0; c < storm_cores; ++c) {
            const Addr offset =
                seed == 0 ? 0 : rng.below(4096) * line_bytes;
            bases_.push_back(workloads::region_base +
                             c * workloads::thread_stride + offset);
        }
        seed0_ = seed == 0;
    }

    void
    setup(SpanLog &spans) override
    {
        const auto programs = spans.time("inputs", [&] { return build(); });
        const auto soc = spans.time(
            "soc_build", [&] { return std::make_unique<SoC>(config()); });
        spans.time("load", [&] { soc->setPrograms(programs); });
    }

    RepResult
    run(SpanLog &spans, bool traced) override
    {
        TxnTracer tracer(/*keep_events=*/false);
        std::unique_ptr<SoC> soc;
        std::vector<Cycle> finished(storm_cores, 0);
        spans.time("run", [&] {
            soc = std::make_unique<SoC>(config());
            if (traced)
                soc->sim().probes().attach(tracer);
            soc->setPrograms(build());
            // runToCompletion's predicate, also noting when each hart
            // finishes: a hart's job is this workload's unit of latency.
            soc->sim().runUntil([&] {
                bool all = true;
                for (unsigned c = 0; c < storm_cores; ++c) {
                    if (finished[c] == 0 && soc->hart(c).done())
                        finished[c] = soc->sim().now();
                    all = all && finished[c] != 0;
                }
                return all;
            });
        });

        RepResult rep;
        rep.cycles = soc->sim().now();
        rep.units = storm_cores;
        for (unsigned c = 0; c < storm_cores; ++c) {
            rep.latencies.push_back(static_cast<double>(finished[c]));
            if (!durable(*soc, bases_[c])) {
                ++rep.failed;
                rep.errors.push_back("wb-storm: hart " + std::to_string(c) +
                                     "'s flushed lines are not durable");
            }
        }
        if (seed0_ && rep.cycles != storm_seed0_cycles) {
            rep.failed = rep.units;
            rep.errors.push_back("wb-storm: seed 0 ran " +
                                 std::to_string(rep.cycles) +
                                 " cycles, bench/manycore runs " +
                                 std::to_string(storm_seed0_cycles));
        }

        const Stats &st = soc->stats();
        rep.values["l1.cbo_cleans"] =
            sumCounter(st, "l1.", ".cbo_clean_accepted");
        rep.values["l1.skip_drops"] = sumCounter(st, "l1.", ".skipit_dropped");
        rep.values["l1.nacks"] = sumCounter(st, "l1.", ".nacks");
        rep.values["l1.flushq_full"] = sumCounter(st, "l1.", ".flushq_full");
        rep.values["l1.mshr_full"] = sumCounter(st, "l1.", ".mshr_full");
        rep.values["lsu.retries"] = sumCounter(st, "core", ".lsu.retries");
        rep.values["l2.rootrelease.llc_skipped"] =
            static_cast<double>(st.get("l2.rootrelease.llc_skipped"));
        rep.values["sim.ff_skip_pct"] =
            100.0 * static_cast<double>(soc->sim().skippedCycles()) /
            static_cast<double>(std::max<Cycle>(1, rep.cycles));
        if (traced)
            rep.stages = tracer.histograms();
        return rep;
    }

  private:
    std::vector<Addr> bases_;
    bool seed0_ = false;

    static SoCConfig
    config()
    {
        SoCConfig cfg;
        cfg.cores = storm_cores;
        cfg.l2.slices = storm_slices;
        // Serial observers, as in bench/manycore: host time here is the
        // model itself.
        cfg.verify.enabled = false;
        cfg.watchdog.enabled = false;
        return cfg;
    }

    std::vector<Program>
    build() const
    {
        std::vector<Program> programs;
        for (const Addr base : bases_) {
            Program p = workloads::dirtyRegion(base, storm_lines);
            const Program wb = workloads::writebackRegion(
                base, storm_lines, /*flush=*/true, storm_passes);
            p.insert(p.end(), wb.begin(), wb.end());
            programs.push_back(std::move(p));
        }
        return programs;
    }

    /** Every line dirtyRegion stored (value i+1 in line i) is in the
     *  persist domain after the flush passes and the final fence. */
    static bool
    durable(SoC &soc, Addr base)
    {
        for (unsigned i = 0; i < storm_lines; ++i) {
            const LineData line =
                soc.dram().persistLine(base + Addr{i} * line_bytes);
            std::uint64_t word = 0;
            std::memcpy(&word, line.data(), sizeof word);
            if (word != i + 1)
                return false;
        }
        return true;
    }
};

// ---------------------------------------------------------------------
// paper-micro: the Fig 9, 10 and 13 grids through runSweep at -j1.
// ---------------------------------------------------------------------

/** The grids live beside the benchmark so that no change under test can
 *  alter what this workload runs. */
const std::vector<std::string> paper_specs = {
    "fig09_cbo_scaling", "fig10_clean_vs_flush", "fig13_skipit_micro"};

workloads::SweepSpec
loadSpec(const std::string &name)
{
    return workloads::SweepSpec::fromJsonText(
        readFile(std::string(SKIPIT_BENCH_DIR) + "sweeps/" + name + ".json"));
}

/** Fig 9 values the paper reports (EXPERIMENTS.md). */
constexpr double paper_one_line = 100;
constexpr double paper_32k_1t = 7460;
constexpr double paper_speedup_8t = 7.2;

std::string
cell(const ReportTable &t, std::size_t row, std::size_t col)
{
    const ReportValue &v = t.at(row, col);
    if (const auto *s = std::get_if<std::string>(&v))
        return *s;
    if (const auto *u = std::get_if<std::uint64_t>(&v))
        return std::to_string(*u);
    return std::to_string(std::get<double>(v));
}

/** Rows of a sweep table keyed by their axis cells, joined with ','. */
std::map<std::string, double>
byKey(const ReportTable &t)
{
    std::map<std::string, double> out;
    for (std::size_t r = 0; r < t.rows(); ++r) {
        std::string key;
        for (std::size_t c = 0; c + 1 < t.columns(); ++c)
            key += (c ? "," : "") + cell(t, r, c);
        out[key] = std::stod(cell(t, r, t.columns() - 1));
    }
    return out;
}

class PaperMicro final : public Workload
{
  public:
    PaperMicro()
    {
        for (const std::string &name : paper_specs)
            specs_.push_back(loadSpec(name));
    }

    void
    setup(SpanLog &spans) override
    {
        // What runSweep does before each point simulates: parse the
        // grids, expand them and build one machine per point.
        const auto grids = spans.time("inputs", [&] {
            std::vector<std::vector<workloads::SweepPoint>> out;
            for (const std::string &name : paper_specs)
                out.push_back(workloads::expandGrid(loadSpec(name)));
            return out;
        });
        spans.time("soc_build", [&] {
            for (const auto &grid : grids) {
                for (const workloads::SweepPoint &pt : grid) {
                    SoCConfig cfg;
                    for (const auto &[axis, token] : pt.params) {
                        if (axis == "threads")
                            cfg.cores = static_cast<unsigned>(
                                std::stoul(token));
                    }
                    SoC soc(cfg);
                }
            }
        });
    }

    RepResult
    run(SpanLog &spans, bool /*traced*/) override
    {
        RepResult rep;
        std::vector<std::map<std::string, double>> tables;
        spans.time("run", [&] {
            for (const workloads::SweepSpec &spec : specs_)
                tables.push_back(byKey(workloads::runSweep(spec, 1)));
        });
        for (const auto &table : tables) {
            for (const auto &[key, cycles] : table) {
                rep.cycles += static_cast<Cycle>(cycles);
                rep.latencies.push_back(cycles);
                ++rep.units;
            }
        }
        checkFig09(tables[0], rep);
        checkFig13(tables[2], rep);

        // Fig 9 axes: flush, bytes, threads.
        const auto &f9 = tables[0];
        const double one_line = f9.at("1,64,1");
        const double big_1t = f9.at("1,32768,1");
        const double speedup = big_1t / f9.at("1,32768,8");
        rep.values["paper_err_pct"] =
            100.0 / 3.0 *
            (std::abs(one_line - paper_one_line) / paper_one_line +
             std::abs(big_1t - paper_32k_1t) / paper_32k_1t +
             std::abs(speedup - paper_speedup_8t) / paper_speedup_8t);
        // Fig 13 axes: skipit, flush, bytes, threads; CBO.CLEAN, 32 KiB.
        const double off = tables[2].at("0,0,32768,1");
        const double on = tables[2].at("1,0,32768,1");
        rep.values["skip_saving_pct"] = 100.0 * (off - on) / off;
        return rep;
    }

  private:
    std::vector<workloads::SweepSpec> specs_;

    /** Fig 9's cycles must equal the repository's golden CSV. */
    static void
    checkFig09(const std::map<std::string, double> &f9, RepResult &rep)
    {
        std::istringstream golden;
        try {
            golden.str(readFile(std::string(SKIPIT_ROOT) +
                                "tests/golden/fig09_cbo_scaling.csv"));
        } catch (const std::exception &e) {
            rep.errors.push_back(std::string("paper-micro: ") + e.what());
            rep.failed += f9.size();
            return;
        }
        std::string line;
        std::getline(golden, line); // header: op,bytes,threads,cycles
        std::size_t matched = 0;
        while (std::getline(golden, line)) {
            std::istringstream row(line);
            std::string op, bytes, threads, cycles;
            std::getline(row, op, ',');
            std::getline(row, bytes, ',');
            std::getline(row, threads, ',');
            std::getline(row, cycles, ',');
            const std::string key =
                (op == "flush" ? "1," : "0,") + bytes + "," + threads;
            const auto it = f9.find(key);
            if (it == f9.end() || it->second != std::stod(cycles)) {
                ++rep.failed;
                rep.errors.push_back("paper-micro: Fig 9 " + op + " " +
                                     bytes + " B x" + threads +
                                     " differs from the golden CSV");
            } else {
                ++matched;
            }
        }
        if (matched != f9.size()) {
            rep.errors.push_back("paper-micro: golden CSV covers " +
                                 std::to_string(matched) + " of " +
                                 std::to_string(f9.size()) + " Fig 9 points");
        }
    }

    /** Fig 13: the skip bit never makes a point slower. */
    static void
    checkFig13(const std::map<std::string, double> &f13, RepResult &rep)
    {
        for (const auto &[key, on] : f13) {
            if (key.rfind("1,", 0) != 0)
                continue;
            const double off = f13.at("0," + key.substr(2));
            if (on > off) {
                ++rep.failed;
                rep.errors.push_back("paper-micro: Fig 13 skip-on slower "
                                     "than skip-off at " + key.substr(2));
            }
        }
    }
};

} // namespace

double
hostNow()
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         process_start)
        .count();
}

double
SpanLog::median(const std::string &name) const
{
    Distribution d;
    for (const Span &s : spans_) {
        if (s.name == name)
            d.add(s.dur_s);
    }
    return d.empty() ? 0.0 : d.median();
}

void
writeChromeTrace(
    std::ostream &os,
    const std::vector<std::pair<std::string, const SpanLog *>> &tracks)
{
    os << "{\"traceEvents\":[";
    bool first = true;
    for (std::size_t t = 0; t < tracks.size(); ++t) {
        const auto &[track, log] = tracks[t];
        os << (first ? "" : ",") << "\n{\"ph\":\"M\",\"pid\":1,\"tid\":"
           << t + 1 << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
           << track << "\"}}";
        first = false;
        for (const SpanLog::Span &s : log->spans()) {
            os << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":" << t + 1
               << ",\"name\":\"" << s.name << "\",\"ts\":"
               << s.start_s * 1e6 << ",\"dur\":" << s.dur_s * 1e6 << "}";
        }
    }
    os << "\n]}\n";
}

bool
sameSimulation(const RepResult &a, const RepResult &b)
{
    return a.cycles == b.cycles && a.latencies == b.latencies &&
           a.units == b.units && a.failed == b.failed &&
           a.values == b.values;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "kv-update", "kv-read", "wb-storm", "paper-micro"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "kv-update")
        return std::make_unique<KvServe>(true, seed);
    if (name == "kv-read")
        return std::make_unique<KvServe>(false, seed);
    if (name == "wb-storm")
        return std::make_unique<WbStorm>(seed);
    if (name == "paper-micro")
        return std::make_unique<PaperMicro>();
    throw std::runtime_error("unknown workload '" + name + "'");
}

} // namespace skipit::benchsuite
