/**
 * @file
 * Deterministic pseudo-random number generation (splitmix64 / xoshiro-style)
 * so that every simulation run is exactly reproducible from its seed.
 */

#ifndef SKIPIT_SIM_RANDOM_HH
#define SKIPIT_SIM_RANDOM_HH

#include <cstdint>

namespace skipit {

/** Stir @p salt into @p seed: the streams one seed derives (per core,
 *  link lane, L2 slice or fuzz purpose) stay unrelated. */
constexpr std::uint64_t
stirSeed(std::uint64_t seed, std::uint64_t salt)
{
    return seed * 0x9e3779b97f4a7c15ULL + salt + 1;
}

/** The splitmix64 finalizer: a full-avalanche 64-bit mixer. */
constexpr std::uint64_t
avalanche(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** splitmix64's output for state @p z: one step, then avalanche(). */
constexpr std::uint64_t
mix64(std::uint64_t z)
{
    return avalanche(z + 0x9e3779b97f4a7c15ULL);
}

/**
 * splitmix64: tiny, fast, high-quality 64-bit generator. Used for workload
 * generation (keys, operation mix) and replacement tie-breaking.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) : state_(seed) {}

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        return avalanche(state_ += 0x9e3779b97f4a7c15ULL);
    }

    /** Uniform value in [0, bound). @p bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }

    /**
     * Uniform value in [lo, hi], inclusive on both ends, with rejection
     * sampling so the distribution is exactly uniform (below() keeps its
     * historical modulo bias because golden workload streams depend on
     * its output byte for byte).
     */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        const std::uint64_t span = hi - lo + 1;
        if (span == 0)
            return next(); // full 64-bit range: every draw is fair
        // Reject draws below 2^64 mod span; what remains is an exact
        // multiple of span, so the final modulo is unbiased.
        const std::uint64_t threshold = (0 - span) % span;
        std::uint64_t r = next();
        while (r < threshold)
            r = next();
        return lo + r % span;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability @p p. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

  private:
    std::uint64_t state_;
};

} // namespace skipit

#endif // SKIPIT_SIM_RANDOM_HH
