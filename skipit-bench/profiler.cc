#include "profiler.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <fcntl.h>
#include <fstream>
#include <link.h>
#include <set>
#include <spawn.h>
#include <stdexcept>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include <execinfo.h>

extern char **environ;

namespace skipit::benchsuite::profiler {

namespace {

constexpr int max_depth = 48;
/** backtrace() inside the handler returns the handler itself and the
 *  kernel's signal trampoline before the interrupted frame. */
constexpr int handler_frames = 2;

struct Sample
{
    int depth;
    void *pc[max_depth];
};

std::vector<Sample> samples;
std::atomic<std::size_t> taken{0};
struct sigaction previous_action;

void
onProf(int, siginfo_t *, void *)
{
    const int saved_errno = errno;
    const std::size_t i = taken.load(std::memory_order_relaxed);
    if (i < samples.size()) {
        samples[i].depth = backtrace(samples[i].pc, max_depth);
        taken.store(i + 1, std::memory_order_relaxed);
    }
    errno = saved_errno;
}

/** The executable's load bias and its executable segments. */
struct ExeMap
{
    std::uintptr_t bias = 0;
    std::vector<std::pair<std::uintptr_t, std::uintptr_t>> text;
    bool found = false;
};

int
findExe(dl_phdr_info *info, std::size_t, void *data)
{
    auto &map = *static_cast<ExeMap *>(data);
    // The first object reported is the executable itself.
    if (map.found)
        return 1;
    map.found = true;
    map.bias = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum; ++i) {
        const ElfW(Phdr) &ph = info->dlpi_phdr[i];
        if (ph.p_type == PT_LOAD && (ph.p_flags & PF_X)) {
            const std::uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
            map.text.emplace_back(lo, lo + ph.p_memsz);
        }
    }
    return 1;
}

std::string
selfExe()
{
    char buf[4096];
    const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n <= 0)
        throw std::runtime_error("profiler: cannot resolve /proc/self/exe");
    return std::string(buf, static_cast<std::size_t>(n));
}

/**
 * Source files of every (inlined) frame at each executable offset,
 * innermost first, via `addr2line -a -i`.
 */
std::unordered_map<std::uintptr_t, std::vector<std::string>>
symbolize(const std::set<std::uintptr_t> &offsets, const std::string &dir)
{
    const std::string in_path = dir + "/addr2line.in";
    const std::string out_path = dir + "/addr2line.out";
    {
        std::ofstream in(in_path);
        for (const std::uintptr_t off : offsets)
            in << "0x" << std::hex << off << "\n";
        if (!in)
            throw std::runtime_error("profiler: cannot write " + in_path);
    }

    const std::string exe = selfExe();
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, in_path.c_str(),
                                     O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                     out_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    std::vector<std::string> args = {"addr2line", "-a", "-i", "-e", exe};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    const int rc = posix_spawnp(&pid, "addr2line", &actions, nullptr,
                                argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    int status = 0;
    if (rc != 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        throw std::runtime_error("profiler: addr2line failed");

    std::unordered_map<std::uintptr_t, std::vector<std::string>> files;
    std::ifstream out(out_path);
    std::string line;
    std::vector<std::string> *current = nullptr;
    while (std::getline(out, line)) {
        if (line.rfind("0x", 0) == 0) {
            current = &files[std::stoull(line, nullptr, 16)];
        } else if (current != nullptr) {
            // "path:line" or "path:line (discriminator N)"; "??:0" unknown.
            current->push_back(line.substr(0, line.rfind(':')));
        }
    }
    return files;
}

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

/** Component a tick-owning frame belongs to, by source file. */
const char *
tickBucket(const std::string &rel)
{
    if (startsWith(rel, "core/hart."))
        return "hart";
    if (startsWith(rel, "core/lsu."))
        return "lsu";
    if (startsWith(rel, "l1/"))
        return "l1";
    if (startsWith(rel, "tilelink/"))
        return "xbar";
    if (startsWith(rel, "l2/"))
        return "l2";
    if (startsWith(rel, "dram/"))
        return "dram";
    if (startsWith(rel, "verify/checker."))
        return "checker";
    if (startsWith(rel, "verify/durability."))
        return "durability";
    if (startsWith(rel, "sim/watchdog."))
        return "watchdog";
    return "kernel";
}

/** Module an innermost repository frame belongs to, by source file. */
const char *
selfBucket(const std::string &rel)
{
    static const std::pair<const char *, const char *> table[] = {
        {"core/", "core"},
        {"l1/", "l1"},
        {"tilelink/", "tilelink"},
        {"l2/", "l2"},
        {"dram/", "dram"},
        {"sim/stats.", "sim.stats"},
        {"sim/histogram.", "sim.stats"},
        {"sim/probe.", "sim.probe"},
        {"sim/txn_tracer.", "sim.probe"},
        {"sim/", "sim.kernel"},
        {"verify/", "verify"},
        {"kv/", "kv"},
        {"workloads/", "workloads"},
        {"soc/", "soc"},
    };
    for (const auto &[prefix, bucket] : table) {
        if (startsWith(rel, prefix))
            return bucket;
    }
    return "other";
}

} // namespace

void
reset(std::size_t capacity)
{
    samples.assign(capacity, Sample{});
    taken.store(0);
    // The first backtrace() loads the unwinder, which is not safe to do
    // inside a signal handler.
    void *prime[4];
    backtrace(prime, 4);
}

void
resume(unsigned hz)
{
    struct sigaction action = {};
    action.sa_sigaction = onProf;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    sigaction(SIGPROF, &action, &previous_action);

    itimerval timer = {};
    timer.it_interval.tv_usec = static_cast<suseconds_t>(1000000 / hz);
    timer.it_value = timer.it_interval;
    setitimer(ITIMER_PROF, &timer, nullptr);
}

void
pause()
{
    const itimerval off = {};
    setitimer(ITIMER_PROF, &off, nullptr);
    sigaction(SIGPROF, &previous_action, nullptr);
}

Attribution
attribute(const std::string &work_dir)
{
    ExeMap exe;
    dl_iterate_phdr(findExe, &exe);
    const auto offsetOf = [&](void *pc, bool return_address) {
        auto a = reinterpret_cast<std::uintptr_t>(pc);
        // A return address points past its call; step back into it so the
        // inlining chain is the caller's at the call site.
        if (return_address)
            --a;
        for (const auto &[lo, hi] : exe.text) {
            if (a >= lo && a < hi)
                return a - exe.bias;
        }
        return std::uintptr_t{0}; // outside the executable (libc, ...)
    };

    const std::size_t n = std::min(taken.load(), samples.size());
    std::vector<std::vector<std::uintptr_t>> stacks(n);
    std::set<std::uintptr_t> unique;
    for (std::size_t i = 0; i < n; ++i) {
        for (int f = handler_frames; f < samples[i].depth; ++f) {
            const std::uintptr_t off =
                offsetOf(samples[i].pc[f], f > handler_frames);
            stacks[i].push_back(off);
            if (off != 0)
                unique.insert(off);
        }
    }
    const auto files = symbolize(unique, work_dir);

    const std::string src = std::string(SKIPIT_ROOT) + "src/";
    Attribution out;
    out.samples = n;
    for (const auto &stack : stacks) {
        // Logical frames, innermost first: the repository-relative source
        // file of each inlined frame, "" outside the repository.
        std::vector<std::string> frames;
        for (const std::uintptr_t off : stack) {
            const auto it = off == 0 ? files.end() : files.find(off);
            if (it == files.end()) {
                frames.emplace_back();
                continue;
            }
            for (const std::string &file : it->second) {
                frames.push_back(startsWith(file, src.c_str())
                                     ? file.substr(src.size())
                                     : std::string());
            }
        }

        const char *self = "other";
        for (const std::string &rel : frames) {
            if (!rel.empty()) {
                self = selfBucket(rel);
                break;
            }
        }
        out.self[self] += 1;

        // From the outermost kernel frame inward, the first repository
        // frame outside the kernel owns the tick. (Components call inline
        // kernel accessors such as now(), so kernel frames also appear
        // inside the owner.)
        const auto isKernel = [](const std::string &rel) {
            return startsWith(rel, "sim/simulator.");
        };
        std::size_t f = frames.size();
        while (f > 0 && !isKernel(frames[f - 1]))
            --f;
        const char *tick = f == 0 ? "setup" : "kernel";
        for (; f > 0; --f) {
            const std::string &rel = frames[f - 1];
            if (!rel.empty() && !isKernel(rel)) {
                tick = tickBucket(rel);
                break;
            }
        }
        out.tick[tick] += 1;
    }
    const double total = static_cast<double>(std::max<std::size_t>(1, n));
    for (auto *shares : {&out.tick, &out.self}) {
        for (auto &[bucket, count] : *shares)
            count = 100.0 * count / total;
    }
    return out;
}

} // namespace skipit::benchsuite::profiler
