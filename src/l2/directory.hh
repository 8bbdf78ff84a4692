/**
 * @file
 * The inclusive cache's full-map directory (§3.4).
 *
 * Each tracked line's metadata records its tag, dirty bit, data residency
 * and the exact set of L1 clients holding it: a branch (read-only) bitmask
 * plus at most one trunk (read/write) owner. Holder inclusivity: every
 * line any L1 holds has an entry here, whatever the state policy.
 */

#ifndef SKIPIT_L2_DIRECTORY_HH
#define SKIPIT_L2_DIRECTORY_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "index.hh"
#include "replace.hh"
#include "sim/change_log.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace skipit {

/** The L2 state policy: where a DRAM fill's bytes land. Only the fill
 *  asks (L2Cache::drainDramResponses); the rest reads data_resident. */
enum class StateKind
{
    Inclusive, //!< the paper's SiFive-style L2 (§3.4): fills write the store
    Exclusive, //!< victim-cache LLC: clean fills stay tag-only
};

inline const char *
toString(StateKind k)
{
    return k == StateKind::Exclusive ? "exclusive" : "inclusive";
}

/** @p token as a state policy ("noninclusive" also names exclusive).
 *  @throws std::runtime_error naming the valid values */
inline StateKind
parseStateKind(const std::string &token)
{
    if (token == "inclusive")
        return StateKind::Inclusive;
    if (token == "exclusive" || token == "noninclusive")
        return StateKind::Exclusive;
    throw std::runtime_error(
        "l2_policy must be inclusive or exclusive, got '" + token + "'");
}

/** Metadata for one L2 way. */
struct DirEntry
{
    bool valid = false;
    Addr tag = 0;
    bool dirty = false;
    /** Does the BankedStore hold this line's bytes? Always true under
     *  StateKind::Inclusive; an exclusive fill leaves a clean entry
     *  tag-only. Dirty implies resident under both (the checker's
     *  data-residency rule audits both promises). */
    bool data_resident = true;
    /** Bitmask of read-only holders; 64 bits covers the maximum hart
     *  count (SoCConfig::cores <= 64). */
    std::uint64_t branches = 0;
    AgentId trunk = invalid_agent;       //!< exclusive owner, if any

    bool operator==(const DirEntry &) const = default;

    bool
    heldByAnyone() const
    {
        return branches != 0 || trunk != invalid_agent;
    }

    bool
    heldBy(AgentId id) const
    {
        return trunk == id ||
               (branches & (std::uint64_t{1} << id)) != 0;
    }

    /** Remove @p id from all holder records. */
    void
    dropHolder(AgentId id)
    {
        if (trunk == id)
            trunk = invalid_agent;
        branches &= ~(std::uint64_t{1} << id);
    }

    /** Downgrade @p id from trunk to branch, if it was the trunk. */
    void
    downgradeHolder(AgentId id)
    {
        if (trunk == id) {
            trunk = invalid_agent;
            branches |= std::uint64_t{1} << id;
        }
    }
};

/**
 * Set-associative directory with pluggable indexing (src/l2/index.hh),
 * pluggable replacement (src/l2/replace.hh), and way locking (a locked
 * way belongs to an active MSHR transaction and must not be chosen as
 * a victim).
 */
class Directory
{
  public:
    /**
     * @param index the shared indexing policy; its sets_per_slice must
     *        equal @p sets (the slice passes its own geometry).
     * @param replace victim-selection heuristic.
     * @param replace_seed seeded-random replacement stream; the slice
     *        stirs its index in so sibling slices draw independently.
     */
    Directory(unsigned sets, unsigned ways, const L2IndexPolicy &index,
              ReplaceKind replace = ReplaceKind::Lru,
              std::uint64_t replace_seed = 1);

    /** Single-slice modulo-indexed directory (unit tests). */
    Directory(unsigned sets, unsigned ways)
        : Directory(sets, ways, L2IndexPolicy::modulo(1, sets))
    {
    }

    unsigned sets() const { return sets_; }
    unsigned ways() const { return ways_; }
    const L2IndexPolicy &indexPolicy() const { return index_; }
    ReplaceKind replaceKind() const { return replace_.kind(); }

    unsigned
    setOf(Addr line_addr) const
    {
        return index_.setOf(line_addr);
    }

    Addr
    tagOf(Addr line_addr) const
    {
        return line_addr >> line_shift;
    }

    /** @return way index of @p line_addr or -1 if not resident. */
    int findWay(Addr line_addr) const;

    const DirEntry &entry(unsigned set, unsigned way) const;
    /** Store @p e; marks the slot in changes() only when it differs
     *  from what the slot held, and on the slot's first mark since the
     *  last drain records the line the entry held. */
    void write(unsigned set, unsigned way, const DirEntry &e);

    /** priorLines() value for an entry that held no line. */
    static constexpr Addr no_line = ~Addr{0};

    /// @name Change log (checker drain; never changes simulated state)
    /// @{
    /** Slots (set * ways + way) a write changed. */
    const ChangeLog &changes() const { return changes_; }
    /** priorLines()[k] is the line changes().slots()[k] held when it was
     *  first marked, or no_line if that entry was invalid. */
    const std::vector<Addr> &priorLines() const { return prior_lines_; }
    void
    clearChanges() const
    {
        changes_.clear();
        prior_lines_.clear();
    }
    /// @}

    /** Rebuild a line address from an entry's tag. */
    Addr
    addrOf(unsigned set, unsigned way) const
    {
        return entry(set, way).tag << line_shift;
    }

    /** The line in @p way was used; the replacement policy learns. */
    void touch(unsigned set, unsigned way);

    /** A line was installed into @p way (FIFO replacement stamps). */
    void recordFill(unsigned set, unsigned way);

    /**
     * Choose a victim way in @p set: an invalid unlocked way if one
     * exists, otherwise the replacement policy's pick among the
     * unlocked ways.
     * @return way index, or -1 if every way is locked
     */
    int pickVictim(unsigned set) const;

    void lockWay(unsigned set, unsigned way);
    void unlockWay(unsigned set, unsigned way);
    bool isLocked(unsigned set, unsigned way) const;

  private:
    unsigned sets_;
    unsigned ways_;
    L2IndexPolicy index_;
    std::vector<DirEntry> entries_;
    std::vector<bool> locked_;
    /** mutable: pickVictim is logically a query, but seeded-random
     *  replacement advances its stream on each draw. */
    mutable ReplacePolicy replace_;
    mutable ChangeLog changes_{entries_.size()};
    mutable std::vector<Addr> prior_lines_;

    std::size_t
    index(unsigned set, unsigned way) const
    {
        SKIPIT_ASSERT(set < sets_ && way < ways_, "directory index OOB");
        return static_cast<std::size_t>(set) * ways_ + way;
    }
};

} // namespace skipit

#endif // SKIPIT_L2_DIRECTORY_HH
