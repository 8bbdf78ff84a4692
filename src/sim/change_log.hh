/**
 * @file
 * ChangeLog: which slots of a state array a write changed since the log
 * was last drained.
 *
 * The coherence checker re-derives its per-line invariants only where
 * state changed (see src/verify/checker.hh). The state it reads (L1
 * meta/data, directory entries, the L2 BankedStore, DRAM lines) changes
 * only through each array's write(), which compares the new value with
 * the held one and marks the slot only when they differ; every other
 * accessor is const. So a marked slot holds new content, unless one
 * cycle wrote it and put it back. A slot is marked at most once between
 * drains, so a log nobody drains (checker off) never grows past the
 * number of slots.
 */

#ifndef SKIPIT_SIM_CHANGE_LOG_HH
#define SKIPIT_SIM_CHANGE_LOG_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace skipit {

/** A mark bitmap plus the list of marked slots, in first-mark order. */
class ChangeLog
{
  public:
    explicit ChangeLog(std::size_t slots = 0) : marked_(slots, 0) {}

    /**
     * Record a write to @p slot (grows the bitmap on demand).
     * @return true when this is the slot's first mark since clear()
     */
    bool
    mark(std::size_t slot)
    {
        if (slot >= marked_.size())
            marked_.resize(slot + 1, 0);
        if (marked_[slot] != 0)
            return false;
        marked_[slot] = 1;
        slots_.push_back(slot);
        return true;
    }

    bool
    marked(std::size_t slot) const
    {
        return slot < marked_.size() && marked_[slot] != 0;
    }

    const std::vector<std::size_t> &slots() const { return slots_; }

    void
    clear()
    {
        for (const std::size_t s : slots_)
            marked_[s] = 0;
        slots_.clear();
    }

  private:
    std::vector<std::uint8_t> marked_;
    std::vector<std::size_t> slots_;
};

} // namespace skipit

#endif // SKIPIT_SIM_CHANGE_LOG_HH
