/**
 * @file
 * Seeded coherence fuzzer CLI: sweep seeds of random multi-hart
 * CBO-heavy programs under the invariant checker and (optionally)
 * TileLink schedule jitter; on failure, shrink the program and emit a
 * deterministic replay bundle.
 *
 * Examples:
 *
 *   skipit-fuzz --seeds 200 -j8                      # smoke sweep
 *   skipit-fuzz --seeds 500 --harts 4 --no-jitter
 *   skipit-fuzz --seeds 100 --set fshrs=1 --set llc_skip=0
 *   skipit-fuzz --seeds 50 --break-probe-invalidate  # must fail
 *   skipit-fuzz --replay /tmp/bundle                 # re-run a bundle
 *
 * Exit status: 0 when every seed is clean (or the replayed bundle no
 * longer fails), 1 when a failure was found (or a replay reproduced),
 * 2 on a bad flag value or an unreadable bundle.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "parse_number.hh"
#include "workloads/fuzz.hh"

using namespace skipit;

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: skipit-fuzz [--seeds N] [--seed-base S] [--harts H]\n"
        "                   [--ops N] [--lines N] [--max-cycles C]\n"
        "                   [--no-jitter] [--max-delay D] [-j N]\n"
        "                   [--set NAME=VALUE]...\n"
        "                   [--crash N] [--crash-at C] [--bundle-dir DIR]\n"
        "                   [--no-shrink] [--break-probe-invalidate]\n"
        "       skipit-fuzz --replay DIR\n"
        "\n"
        "  --crash N     per seed, after one clean run, re-run with the\n"
        "                power failing at N sampled cycles and audit\n"
        "                the frozen persist-domain image\n"
        "  --crash-at C  crash every run at exactly cycle C\n%s",
        setUsage().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    workloads::FuzzSpec spec;
    std::uint64_t seed_base = 0;
    unsigned seeds = 100;
    unsigned jobs = 1;
    bool shrink = true;
    std::string bundle_dir = "fuzz-bundle";
    std::string replay_dir;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "skipit-fuzz: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--seeds")
            seeds = parseUnsigned<unsigned>(arg.c_str(), next());
        else if (arg == "--seed-base")
            seed_base = parseUnsigned(arg.c_str(), next());
        else if (arg == "--harts")
            spec.machine.cores = parseUnsigned<unsigned>(arg.c_str(), next());
        else if (arg == "--ops")
            spec.ops = parseUnsigned<unsigned>(arg.c_str(), next());
        else if (arg == "--lines")
            spec.lines = parseUnsigned<unsigned>(arg.c_str(), next());
        else if (arg == "--max-cycles")
            spec.max_cycles = parseUnsigned(arg.c_str(), next());
        else if (arg == "--no-jitter")
            spec.jitter = false;
        else if (arg == "--max-delay")
            spec.max_delay = parseUnsigned<unsigned>(arg.c_str(), next());
        else if (arg == "--set")
            applySet(next(), spec.machine, &SoCConfig::set);
        else if (arg == "--crash")
            spec.crash_points = parseUnsigned<unsigned>(arg.c_str(), next());
        else if (arg == "--crash-at")
            spec.crash_at = parseUnsigned(arg.c_str(), next());
        else if (arg == "-j")
            jobs = parseUnsigned<unsigned>(arg.c_str(), next());
        else if (arg.rfind("-j", 0) == 0 && arg.size() > 2)
            jobs = parseUnsigned<unsigned>("-j", arg.substr(2));
        else if (arg == "--bundle-dir")
            bundle_dir = next();
        else if (arg == "--no-shrink")
            shrink = false;
        else if (arg == "--break-probe-invalidate")
            spec.break_probe_invalidate = true;
        else if (arg == "--replay")
            replay_dir = next();
        else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            return 2;
        }
    }

    if (!replay_dir.empty()) {
        std::vector<Program> programs;
        const auto readBundle = [&](const std::string &dir) {
            return workloads::readReplayBundle(dir, programs);
        };
        const auto [rspec, seed] = parseWith(readBundle, replay_dir);
        std::cout << "replaying " << replay_dir << " (seed " << seed
                  << ", " << rspec.machine.cores << " harts)\n";
        if (auto f = workloads::runFuzzPrograms(rspec, seed, programs)) {
            std::cout << "reproduced: " << f->kind << " @ cycle "
                      << f->cycle << ": " << f->detail << "\n";
            return 1;
        }
        std::cout << "clean: the bundle no longer fails\n";
        return 0;
    }

    if (const std::string err = spec.check(); !err.empty())
        badValue(err);
    std::cout << "fuzzing " << seeds << " seeds from " << seed_base
              << " (" << spec.machine.cores << " harts, " << spec.ops
              << " ops, " << spec.lines << " lines, jitter "
              << (spec.jitter ? "on" : "off") << ", " << jobs
              << " jobs";
    if (spec.crash_points > 0)
        std::cout << ", " << spec.crash_points << " crash points/seed";
    if (spec.crash_at != 0)
        std::cout << ", crash at cycle " << spec.crash_at;
    std::cout << ")\n";

    auto failure = workloads::runFuzz(spec, seed_base, seeds, jobs);
    if (!failure) {
        std::cout << "all " << seeds << " seeds clean\n";
        return 0;
    }

    std::cout << "seed " << failure->seed << " FAILED (" << failure->kind
              << " @ cycle " << failure->cycle << "): " << failure->detail
              << "\n";
    if (shrink) {
        const std::size_t before = [&] {
            std::size_t n = 0;
            for (const Program &p : failure->programs)
                n += p.size();
            return n;
        }();
        *failure = workloads::shrinkFuzzFailure(spec, *failure);
        std::size_t after = 0;
        for (const Program &p : failure->programs)
            after += p.size();
        std::cout << "shrunk " << before << " -> " << after
                  << " ops; now: " << failure->kind << " @ cycle "
                  << failure->cycle << ": " << failure->detail << "\n";
    }
    if (workloads::writeReplayBundle(spec, *failure, bundle_dir)) {
        std::cout << "replay bundle written to " << bundle_dir
                  << " (re-run: skipit-fuzz --replay " << bundle_dir
                  << ")\n";
    }
    return 1;
}
