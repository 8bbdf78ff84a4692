/**
 * @file
 * The L2 replacement policy: victim selection within a set, factored
 * out of the Directory so the eviction heuristic is a swappable knob
 * (FlexiCAS's replace.hpp direction).
 *
 * Contract with the Directory (the sole client):
 *  - touch(set, way) on every use the policy should learn from — the
 *    Directory forwards its own touch() calls (today: Acquire grants).
 *  - fill(set, way) when a line is installed into a way.
 *  - pickVictim(set, valid, unlocked) returns a way to evict: an
 *    invalid unlocked way if one exists (lowest index — no policy has a
 *    reason to prefer evicting live data over filling a hole),
 *    otherwise a policy-chosen unlocked way; -1 when every way is
 *    locked by an active transaction.
 *
 * Kinds:
 *  - Lru: least-recently-touched. Extracted verbatim from the old
 *    Directory (a global monotonic stamp, fills inherit the victim's
 *    stamp) so the default configuration is bit-identical to the
 *    pre-policy tree.
 *  - Fifo: least-recently-filled; touches are ignored.
 *  - Random: a seeded xorshift draw among the unlocked valid ways.
 *    Deterministic: the stream is a pure function of the seed and the
 *    (deterministic) sequence of pickVictim calls, so fixed-seed runs
 *    replay bit-identically — asserted by the replay-determinism test.
 */

#ifndef SKIPIT_L2_REPLACE_HH
#define SKIPIT_L2_REPLACE_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace skipit {

enum class ReplaceKind
{
    Lru,
    Fifo,
    Random,
};

inline const char *
toString(ReplaceKind k)
{
    switch (k) {
      case ReplaceKind::Fifo:
        return "fifo";
      case ReplaceKind::Random:
        return "random";
      case ReplaceKind::Lru:
        break;
    }
    return "lru";
}

/** @p token as a replacement kind.
 *  @throws std::runtime_error naming the valid values */
inline ReplaceKind
parseReplaceKind(const std::string &token)
{
    if (token == "lru")
        return ReplaceKind::Lru;
    if (token == "fifo")
        return ReplaceKind::Fifo;
    if (token == "random")
        return ReplaceKind::Random;
    throw std::runtime_error("l2_replace must be lru, fifo or random, got '" +
                             token + "'");
}

/** See file comment. */
class ReplacePolicy
{
  public:
    ReplacePolicy(ReplaceKind kind, unsigned sets, unsigned ways,
                  std::uint64_t seed = 1);

    ReplaceKind kind() const { return kind_; }

    /** The line in @p way was used (Acquire grant). */
    void touch(unsigned set, unsigned way);

    /** A line was installed into @p way. */
    void fill(unsigned set, unsigned way);

    /**
     * Choose a victim way in @p set. @p valid and @p unlocked are
     * per-way bitmasks (bit w = way w); only unlocked ways may be
     * chosen. @return way index, or -1 if every way is locked.
     * Random draws advance the seeded stream.
     */
    int pickVictim(unsigned set, std::uint64_t valid,
                   std::uint64_t unlocked);

  private:
    std::uint64_t &stamp(unsigned set, unsigned way);

    ReplaceKind kind_;
    unsigned sets_;
    unsigned ways_;
    /** LRU: last-touch stamp. FIFO: fill stamp. Unused for Random. */
    std::vector<std::uint64_t> stamp_;
    std::uint64_t counter_ = 0;
    std::uint64_t rng_state_;
};

} // namespace skipit

#endif // SKIPIT_L2_REPLACE_HH
