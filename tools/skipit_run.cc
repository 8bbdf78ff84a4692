/**
 * @file
 * skipit-run: execute an assembly program on the simulated SoC.
 *
 *   skipit-run [options] <program.s> [<program2.s> ...]
 *
 * Each program file runs on its own hart (core i gets file i). Options:
 *
 *   --cores N        number of cores, 1-64 (default: number of programs)
 *   --slices N       number of address-interleaved L2 slices (default 1)
 *   --engine E       tick engine: serial (default) or parallel; both are
 *                    bit-identical (see docs/PARALLELISM.md)
 *   --workers N      parallel-engine thread count (0 = hw concurrency)
 *   --no-skipit      disable the Skip It skip bit and GrantDataDirty
 *   --trace P[,P]    print every probe event whose stage starts with a
 *                    listed prefix (l1.flushq, l2, dram, ...; all for
 *                    every event) to stderr, one line per event
 *   --trace-out FILE write a Chrome trace-event JSON of every memory
 *                    transaction (open in chrome://tracing / Perfetto);
 *                    also prints per-stage latency histograms with --stats;
 *                    exits 1 if FILE cannot be written
 *   --stats          dump every counter at the end
 *   --stats-prefix P restrict --stats output to counters starting with P
 *   --peek ADDR      print the DRAM word at ADDR after the run
 *                    (repeatable)
 *
 * Example:
 *
 *   cat > wb.s <<'EOF'
 *   store     0x1000 42
 *   cbo.flush 0x1000
 *   fence
 *   EOF
 *   skipit-run --stats --peek 0x1000 wb.s
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/asm.hh"
#include "sim/txn_tracer.hh"
#include "soc/soc.hh"

using namespace skipit;

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: skipit-run [--cores N] [--slices N] "
                 "[--engine serial|parallel]\n"
                 "                  [--workers N] [--no-skipit] "
                 "[--trace P[,P]] [--stats]\n"
                 "                  [--stats-prefix P] "
                 "[--trace-out FILE] [--describe]\n"
                 "                  [--l2-policy inclusive|exclusive] "
                 "[--l2-index modulo|hashed]\n"
                 "                  [--l2-replace lru|fifo|random] "
                 "[--peek ADDR]... <program.s>...\n");
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        SKIPIT_FATAL("cannot open program file: ", path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** The --trace sink: prints each event whose stage starts with one of
 *  the listed prefixes ("all" selects every event). */
class StageTrace : public probe::Sink
{
  public:
    void
    onEvent(const probe::Event &e) override
    {
        const std::string_view stage = e.stage;
        for (const std::string &p : prefixes) {
            if (p == "all" || stage.starts_with(p)) {
                probe::printEvent(std::cerr, e);
                std::cerr << "\n";
                return;
            }
        }
    }

    std::vector<std::string> prefixes;
};

} // namespace

int
main(int argc, char **argv)
{
    unsigned cores = 0;
    unsigned slices = 0;
    StateKind l2_policy = StateKind::Inclusive;
    IndexKind l2_index = IndexKind::Modulo;
    ReplaceKind l2_replace = ReplaceKind::Lru;
    unsigned workers = 0;
    Simulator::Engine engine = Simulator::Engine::serial;
    bool skip_it = true;
    bool dump_stats = false;
    bool describe = false;
    std::string trace_out;
    std::string stats_prefix;
    StageTrace stage_trace;
    std::vector<Addr> peeks;
    std::vector<std::string> files;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--cores" && i + 1 < argc) {
            cores = static_cast<unsigned>(std::stoul(argv[++i]));
        } else if (arg == "--slices" && i + 1 < argc) {
            slices = static_cast<unsigned>(std::stoul(argv[++i]));
        } else if (arg == "--engine" && i + 1 < argc) {
            const std::string e = argv[++i];
            if (e == "serial") {
                engine = Simulator::Engine::serial;
            } else if (e == "parallel") {
                engine = Simulator::Engine::parallel;
            } else {
                std::fprintf(stderr,
                             "error: --engine must be serial or "
                             "parallel, got '%s'\n",
                             e.c_str());
                return 1;
            }
        } else if (arg == "--workers" && i + 1 < argc) {
            workers = static_cast<unsigned>(std::stoul(argv[++i]));
        } else if (arg == "--l2-policy" && i + 1 < argc) {
            if (!stateKindFromString(argv[++i], l2_policy)) {
                std::fprintf(stderr, "error: --l2-policy must be "
                             "inclusive or exclusive, got '%s'\n",
                             argv[i]);
                return 1;
            }
        } else if (arg == "--l2-index" && i + 1 < argc) {
            if (!indexKindFromString(argv[++i], l2_index)) {
                std::fprintf(stderr, "error: --l2-index must be modulo "
                             "or hashed, got '%s'\n", argv[i]);
                return 1;
            }
        } else if (arg == "--l2-replace" && i + 1 < argc) {
            if (!replaceKindFromString(argv[++i], l2_replace)) {
                std::fprintf(stderr, "error: --l2-replace must be lru, "
                             "fifo or random, got '%s'\n", argv[i]);
                return 1;
            }
        } else if (arg == "--no-skipit") {
            skip_it = false;
        } else if (arg == "--trace" && i + 1 < argc) {
            std::stringstream ss(argv[++i]);
            std::string prefix;
            while (std::getline(ss, prefix, ','))
                stage_trace.prefixes.push_back(prefix);
        } else if (arg == "--trace-out" && i + 1 < argc) {
            trace_out = argv[++i];
        } else if (arg.rfind("--trace-out=", 0) == 0) {
            trace_out = arg.substr(12);
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--stats-prefix" && i + 1 < argc) {
            stats_prefix = argv[++i];
            dump_stats = true;
        } else if (arg.rfind("--stats-prefix=", 0) == 0) {
            stats_prefix = arg.substr(15);
            dump_stats = true;
        } else if (arg == "--describe") {
            describe = true;
        } else if (arg == "--peek" && i + 1 < argc) {
            peeks.push_back(std::stoull(argv[++i], nullptr, 0));
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            usage();
            return 1;
        } else {
            files.push_back(arg);
        }
    }
    if (files.empty()) {
        usage();
        return 1;
    }

    SoCConfig cfg;
    cfg.cores = cores != 0 ? cores
                           : static_cast<unsigned>(files.size());
    if (cfg.cores < files.size()) {
        std::fprintf(stderr, "error: %zu programs but only %u cores\n",
                     files.size(), cfg.cores);
        return 1;
    }
    if (slices != 0)
        cfg.l2.slices = slices;
    cfg.l2.policy = l2_policy;
    cfg.l2.index = l2_index;
    cfg.l2.replace = l2_replace;
    cfg.engine = engine;
    cfg.workers = workers;
    cfg.withSkipIt(skip_it);
    SoC soc(cfg);
    if (describe)
        std::fputs(cfg.describe().c_str(), stdout);

    if (!stage_trace.prefixes.empty())
        soc.sim().probes().attach(stage_trace);
    TxnTracer tracer;
    if (!trace_out.empty()) {
        soc.sim().probes().attach(tracer);
        soc.watchdog().setTracer(&tracer);
    }

    for (std::size_t i = 0; i < files.size(); ++i)
        soc.hart(static_cast<unsigned>(i))
            .setProgram(assembleProgram(readFile(files[i])));

    const Cycle cycles = soc.runToQuiescence();
    std::printf("completed in %llu cycles (%u cores, skip-it %s)\n",
                static_cast<unsigned long long>(cycles), cfg.cores,
                skip_it ? "on" : "off");

    for (const Addr a : peeks) {
        std::printf("dram[0x%llx] = 0x%llx\n",
                    static_cast<unsigned long long>(a),
                    static_cast<unsigned long long>(
                        soc.dram().peekWord(a)));
    }
    if (!trace_out.empty()) {
        if (!tracer.writeChromeTraceFile(trace_out))
            return 1;
        std::printf("wrote %zu trace events to %s\n",
                    tracer.eventCount(), trace_out.c_str());
    }
    if (dump_stats) {
        if (stats_prefix.empty())
            soc.stats().dump(std::cout);
        else
            soc.stats().dumpPrefix(std::cout, stats_prefix);
        if (!trace_out.empty()) {
            std::printf("\nper-stage latency histograms (cycles):\n");
            tracer.dumpHistograms(std::cout);
        }
    }
    return 0;
}
