#include "directory.hh"

namespace skipit {

Directory::Directory(unsigned sets, unsigned ways,
                     const L2IndexPolicy &index, ReplaceKind replace,
                     std::uint64_t replace_seed)
    : sets_(sets), ways_(ways), index_(index),
      entries_(static_cast<std::size_t>(sets) * ways),
      locked_(entries_.size(), false),
      replace_(replace, sets, ways, replace_seed)
{
    SKIPIT_ASSERT(sets > 0 && ways > 0, "directory geometry must be > 0");
    SKIPIT_ASSERT(index.sets_per_slice == sets,
                  "index policy sets_per_slice (", index.sets_per_slice,
                  ") disagrees with directory sets (", sets, ")");
}

int
Directory::findWay(Addr line_addr) const
{
    const unsigned set = setOf(line_addr);
    const Addr tag = tagOf(line_addr);
    for (unsigned w = 0; w < ways_; ++w) {
        const DirEntry &e = entries_[index(set, w)];
        if (e.valid && e.tag == tag)
            return static_cast<int>(w);
    }
    return -1;
}

const DirEntry &
Directory::entry(unsigned set, unsigned way) const
{
    return entries_[index(set, way)];
}

void
Directory::write(unsigned set, unsigned way, const DirEntry &e)
{
    const std::size_t i = index(set, way);
    DirEntry &held = entries_[i];
    if (held == e)
        return;
    if (changes_.mark(i))
        prior_lines_.push_back(held.valid ? held.tag << line_shift : no_line);
    held = e;
}

void
Directory::touch(unsigned set, unsigned way)
{
    replace_.touch(set, way);
}

void
Directory::recordFill(unsigned set, unsigned way)
{
    replace_.fill(set, way);
}

int
Directory::pickVictim(unsigned set) const
{
    std::uint64_t valid = 0;
    std::uint64_t unlocked = 0;
    for (unsigned w = 0; w < ways_; ++w) {
        if (entries_[index(set, w)].valid)
            valid |= std::uint64_t{1} << w;
        if (!locked_[index(set, w)])
            unlocked |= std::uint64_t{1} << w;
    }
    return replace_.pickVictim(set, valid, unlocked);
}

void
Directory::lockWay(unsigned set, unsigned way)
{
    SKIPIT_ASSERT(!locked_[index(set, way)], "double lock of L2 way");
    locked_[index(set, way)] = true;
}

void
Directory::unlockWay(unsigned set, unsigned way)
{
    SKIPIT_ASSERT(locked_[index(set, way)], "unlock of unlocked L2 way");
    locked_[index(set, way)] = false;
}

bool
Directory::isLocked(unsigned set, unsigned way) const
{
    return locked_[index(set, way)];
}

} // namespace skipit
