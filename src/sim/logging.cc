#include "logging.hh"

#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <utility>
#include <vector>

namespace skipit {

namespace {

struct HandlerEntry
{
    std::size_t id;
    std::function<void(std::ostream &)> fn;
};

// Thread-local: each sweep or fuzz worker owns a full Simulator/SoC
// stack, and a crash must report only the crashing thread's context.
thread_local std::vector<HandlerEntry> crash_handlers;
thread_local std::size_t next_handler_id = 1;
thread_local bool in_crash_report = false;

void
runCrashHandlers(std::ostream &os)
{
    if (in_crash_report)
        return; // a handler panicked; don't recurse
    in_crash_report = true;
    // Newest-first: the innermost component (the running Simulator) prints
    // its cycle/transaction context before longer-lived observers.
    for (auto it = crash_handlers.rbegin(); it != crash_handlers.rend(); ++it)
        it->fn(os);
    in_crash_report = false;
}

} // namespace

std::size_t
addCrashHandler(std::function<void(std::ostream &)> fn)
{
    const std::size_t id = next_handler_id++;
    crash_handlers.push_back({id, std::move(fn)});
    return id;
}

void
removeCrashHandler(std::size_t id)
{
    for (auto it = crash_handlers.begin(); it != crash_handlers.end(); ++it) {
        if (it->id == id) {
            crash_handlers.erase(it);
            return;
        }
    }
}

namespace detail {

[[noreturn]] void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "panic: " << msg << " @ " << file << ":" << line
              << std::endl;
    runCrashHandlers(std::cerr);
    std::cout.flush();
    std::cerr.flush();
    std::abort();
}

[[noreturn]] void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "fatal: " << msg << " @ " << file << ":" << line
              << std::endl;
    runCrashHandlers(std::cerr);
    std::cout.flush();
    std::cerr.flush();
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    std::cerr << "warn: " << msg << std::endl;
}

void
informImpl(const std::string &msg)
{
    std::cout << "info: " << msg << std::endl;
}

} // namespace detail
} // namespace skipit
