/**
 * @file
 * skipit-sweep: expand a sweep spec into independent simulation runs,
 * execute them on a thread pool, and emit one merged CSV.
 *
 *   skipit-sweep [--kind K] [--axis NAME=V1,V2,...]... [-j N]
 *                [--seed S] [-o FILE] [--text]
 *   skipit-sweep --spec FILE.json [-j N] [-o FILE] [--text]
 *
 * Options:
 *
 *   --kind K          measurement: cbo | wwr | redundant | throughput
 *                     | platform (default: cbo)
 *   --axis NAME=...   add a grid axis (expansion order = CLI order,
 *                     last axis varies fastest); repeatable
 *   --spec FILE       read kind/seed/axes from a JSON file instead:
 *                     {"kind": "cbo", "seed": 0,
 *                      "axes": {"threads": [1,2], "bytes": [64,4096]}}
 *   -j N, --jobs N    worker threads (default: 1)
 *   --seed S          base RNG seed; run i uses S+i (throughput kind)
 *   -o FILE           write CSV to FILE (default: stdout); exits 1,
 *                     before any run, if FILE cannot be opened
 *   --text            render an aligned table instead of CSV
 *
 * Output rows are merged in grid order regardless of worker completion
 * order, so the CSV is byte-identical across runs at any -j.
 *
 * Example — Figure 9's full grid on 8 workers:
 *
 *   skipit-sweep --kind cbo --axis bytes=64,1024,4096,32768 \
 *                --axis threads=1,2,4,8 --axis flush=0,1 -j8 -o fig09.csv
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "parse_number.hh"
#include "workloads/sweep.hh"

using namespace skipit;

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: skipit-sweep [--kind K] [--axis NAME=V1,V2]... "
                 "[--spec FILE.json]\n"
                 "                    [-j N] [--seed S] [-o FILE] "
                 "[--text]\n");
}

bool
parseAxis(const std::string &arg, workloads::SweepAxis &axis)
{
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= arg.size())
        return false;
    axis.name = arg.substr(0, eq);
    std::stringstream ss(arg.substr(eq + 1));
    std::string v;
    while (std::getline(ss, v, ','))
        axis.values.push_back(v);
    return !axis.values.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    workloads::SweepSpec spec;
    std::string spec_file;
    std::string out_file;
    unsigned jobs = 1;
    bool text = false;
    bool have_cli_grid = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--kind" && i + 1 < argc) {
            spec.kind = argv[++i];
            have_cli_grid = true;
        } else if (arg == "--axis" && i + 1 < argc) {
            workloads::SweepAxis axis;
            if (!parseAxis(argv[++i], axis)) {
                std::fprintf(stderr,
                             "error: --axis expects NAME=V1[,V2...]\n");
                return 1;
            }
            spec.axes.push_back(std::move(axis));
            have_cli_grid = true;
        } else if (arg == "--spec" && i + 1 < argc) {
            spec_file = argv[++i];
        } else if (arg.rfind("--spec=", 0) == 0) {
            spec_file = arg.substr(7);
        } else if ((arg == "-j" || arg == "--jobs") && i + 1 < argc) {
            jobs = parseUnsigned<unsigned>("-j", argv[++i]);
        } else if (arg.rfind("-j", 0) == 0 && arg.size() > 2 &&
                   arg[2] != 'o') {
            jobs = parseUnsigned<unsigned>("-j", arg.substr(2));
        } else if (arg == "--seed" && i + 1 < argc) {
            spec.seed = parseUnsigned("--seed", argv[++i]);
            have_cli_grid = true;
        } else if (arg == "-o" && i + 1 < argc) {
            out_file = argv[++i];
        } else if (arg == "--text") {
            text = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            return 1;
        }
    }

    if (!spec_file.empty()) {
        if (have_cli_grid) {
            std::fprintf(stderr,
                         "error: --spec excludes --kind/--axis/--seed\n");
            return 1;
        }
        try {
            spec = workloads::SweepSpec::fromJsonText(readFile(spec_file));
        } catch (const std::exception &e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 1;
        }
    }

    try {
        const std::size_t runs = workloads::expandGrid(spec).size();
        // Open the report before anything runs: a bad path costs no run.
        std::ofstream out;
        if (!out_file.empty()) {
            out.open(out_file);
            if (!out)
                throw std::runtime_error("cannot write " + out_file);
        }
        std::fprintf(stderr, "skipit-sweep: %zu run(s), kind %s, -j%u\n",
                     runs, spec.kind.c_str(), jobs);
        const ReportTable table = workloads::runSweep(spec, jobs);
        if (!out_file.empty()) {
            table.renderCsv(out);
            if (!out.flush())
                throw std::runtime_error("cannot write " + out_file);
            std::fprintf(stderr, "skipit-sweep: wrote %s\n",
                         out_file.c_str());
        } else if (text) {
            table.renderText(std::cout);
        } else {
            table.renderCsv(std::cout);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}
