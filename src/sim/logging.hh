/**
 * @file
 * gem5-style diagnostic helpers.
 *
 * panic()  — an internal invariant was violated (a simulator bug); aborts.
 * fatal()  — the user supplied an impossible configuration; exits cleanly.
 * warn()   — something is suspicious but simulation can continue.
 * inform() — purely informational status output.
 */

#ifndef SKIPIT_SIM_LOGGING_HH
#define SKIPIT_SIM_LOGGING_HH

#include <cstddef>
#include <functional>
#include <ostream>
#include <sstream>
#include <string>

namespace skipit {

/**
 * Register a callback that runs on the panic()/fatal() path, before the
 * process dies, so crashes leave diagnosable artifacts (current cycle,
 * active transaction, pending trace output) instead of truncated logs.
 *
 * The registry is thread-local: sweep and fuzz workers each own a full
 * Simulator/SoC stack, and a crash on one thread must only report that
 * thread's context. Handlers run newest-first and must not allocate
 * simulated state or panic themselves (re-entrant panics skip handlers).
 *
 * @return an id for removeCrashHandler
 */
std::size_t addCrashHandler(std::function<void(std::ostream &)> fn);

/** Unregister a handler; safe to call with an already-removed id. */
void removeCrashHandler(std::size_t id);

/** RAII registration so components can't leak dangling handlers. */
class ScopedCrashHandler
{
  public:
    explicit ScopedCrashHandler(std::function<void(std::ostream &)> fn)
        : id_(addCrashHandler(std::move(fn)))
    {
    }
    ~ScopedCrashHandler() { removeCrashHandler(id_); }
    ScopedCrashHandler(const ScopedCrashHandler &) = delete;
    ScopedCrashHandler &operator=(const ScopedCrashHandler &) = delete;

  private:
    std::size_t id_;
};

namespace detail {

/** Concatenate any streamable arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/** Abort with a message: something that must never happen, happened. */
#define SKIPIT_PANIC(...)                                                    \
    ::skipit::detail::panicImpl(__FILE__, __LINE__,                          \
                                ::skipit::detail::concat(__VA_ARGS__))

/** Exit with a message: the user's configuration cannot be simulated. */
#define SKIPIT_FATAL(...)                                                    \
    ::skipit::detail::fatalImpl(__FILE__, __LINE__,                          \
                                ::skipit::detail::concat(__VA_ARGS__))

/** Assert a simulator invariant; panics with the message on failure. */
#define SKIPIT_ASSERT(cond, ...)                                             \
    do {                                                                     \
        if (!(cond)) {                                                       \
            SKIPIT_PANIC("assertion failed: " #cond " ", __VA_ARGS__);       \
        }                                                                    \
    } while (0)

template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

template <typename... Args>
void
inform(Args &&...args)
{
    detail::informImpl(detail::concat(std::forward<Args>(args)...));
}

} // namespace skipit

#endif // SKIPIT_SIM_LOGGING_HH
