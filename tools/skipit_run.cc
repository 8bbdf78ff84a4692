/**
 * @file
 * skipit-run: execute an assembly program on the simulated SoC.
 *
 *   skipit-run [options] <program.s> [<program2.s> ...]
 *
 * Each program file runs on its own hart (core i gets file i). Options:
 *
 *   --cores N        number of cores, 1-64 (default: number of programs)
 *   --set NAME=VALUE set a machine field, e.g. l2_slices=4 (repeatable)
 *   --trace P[,P]    print every probe event whose stage starts with a
 *                    listed prefix (l1.flushq, l2, dram, ...; all for
 *                    every event) to stderr, one line per event
 *   --trace-out FILE write a Chrome trace-event JSON of every memory
 *                    transaction (open in chrome://tracing / Perfetto);
 *                    also prints per-stage latency histograms with --stats;
 *                    exits 1, before the run, if FILE cannot be written
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
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/asm.hh"
#include "parse_number.hh"
#include "sim/txn_tracer.hh"
#include "soc/soc.hh"

using namespace skipit;

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: skipit-run [--cores N] [--set NAME=VALUE]... "
                 "[--trace P[,P]] [--stats]\n"
                 "                  [--stats-prefix P] "
                 "[--trace-out FILE] [--describe]\n"
                 "                  [--peek ADDR]... <program.s>...\n%s",
                 setUsage().c_str());
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
    SoCConfig cfg;
    unsigned cores = 0;
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
            cores = parseUnsigned<unsigned>("--cores", argv[++i]);
        } else if (arg == "--set" && i + 1 < argc) {
            applySet(argv[++i], cfg, &SoCConfig::set);
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
            peeks.push_back(parseUnsigned<Addr>("--peek", argv[++i]));
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
    std::vector<Program> programs;
    for (const std::string &f : files) {
        const std::string text = parseWith(readFile, f);
        try {
            programs.push_back(assembleProgram(text));
        } catch (const std::runtime_error &e) {
            badValue(f + ": " + e.what());
        }
    }

    cfg.cores = cores != 0 ? cores
                           : static_cast<unsigned>(files.size());
    if (cfg.cores < files.size()) {
        std::fprintf(stderr, "error: %zu programs but only %u cores\n",
                     files.size(), cfg.cores);
        return 1;
    }
    if (const std::string err = cfg.check(); !err.empty())
        badValue(err);
    // Open the trace file before anything runs: a bad path costs no run.
    const auto cannotWrite = [&] {
        std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
        return 1;
    };
    std::ofstream trace_file;
    if (!trace_out.empty()) {
        trace_file.open(trace_out);
        if (!trace_file)
            return cannotWrite();
    }
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

    soc.setPrograms(programs);

    const Cycle cycles = soc.runToQuiescence();
    std::printf("completed in %llu cycles (%u cores, skip-it %s)\n",
                static_cast<unsigned long long>(cycles), cfg.cores,
                cfg.l1.skip_it ? "on" : "off");

    for (const Addr a : peeks) {
        std::printf("dram[0x%llx] = 0x%llx\n",
                    static_cast<unsigned long long>(a),
                    static_cast<unsigned long long>(
                        soc.dram().peekWord(a)));
    }
    if (!trace_out.empty()) {
        tracer.writeChromeTrace(trace_file);
        if (!trace_file.flush())
            return cannotWrite();
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
