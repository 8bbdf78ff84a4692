/**
 * @file
 * The BankedStore: the inclusive cache's line-data SRAM (§3.4).
 *
 * Data is indexed by (set, way); access timing is charged by the MSHR
 * state machines, so this class is purely functional storage.
 */

#ifndef SKIPIT_L2_BANKED_STORE_HH
#define SKIPIT_L2_BANKED_STORE_HH

#include <vector>

#include "sim/change_log.hh"
#include "sim/logging.hh"
#include "sim/types.hh"
#include "tilelink/messages.hh"

namespace skipit {

/** Line-data storage for a set-associative cache. */
class BankedStore
{
  public:
    BankedStore(unsigned sets, unsigned ways)
        : sets_(sets), ways_(ways),
          lines_(static_cast<std::size_t>(sets) * ways)
    {
    }

    const LineData &
    read(unsigned set, unsigned way) const
    {
        return lines_[index(set, way)];
    }

    /** Store a line; marks the slot in changes() only when the bytes
     *  differ from what it held. */
    void
    write(unsigned set, unsigned way, const LineData &data)
    {
        const std::size_t i = index(set, way);
        if (lines_[i] == data)
            return;
        changes_.mark(i);
        lines_[i] = data;
    }

    /** Slots (set * ways + way) whose bytes a write changed since the
     *  last clearChanges(); the checker drains this without changing
     *  simulated state. */
    const ChangeLog &changes() const { return changes_; }
    void clearChanges() const { changes_.clear(); }

  private:
    unsigned sets_;
    unsigned ways_;
    std::vector<LineData> lines_;
    mutable ChangeLog changes_{lines_.size()};

    std::size_t
    index(unsigned set, unsigned way) const
    {
        SKIPIT_ASSERT(set < sets_ && way < ways_, "banked store index OOB");
        return static_cast<std::size_t>(set) * ways_ + way;
    }
};

} // namespace skipit

#endif // SKIPIT_L2_BANKED_STORE_HH
