/**
 * @file
 * The L2 indexing policy: the single shared mapping from a line address
 * to its home slice and its set within that slice.
 *
 * Both the interconnect (each client link sends A/C/E to the home
 * slice, src/tilelink/link.hh) and the cache (Directory looks up sets,
 * slices assert homesLine) consume the same L2IndexPolicy value, so the
 * two can never disagree about where a line lives — the checker's
 * slice-routing invariant guards the one remaining way to break that
 * (wiring two components with *different* policy values, exercised by
 * the negative tests).
 *
 * Two kinds:
 *  - Modulo: the classic layout. Slice bits sit just above the line
 *    offset (consecutive lines stripe across slices) and the set index
 *    is the next bits modulo sets-per-slice. Bit-identical to the
 *    pre-policy arithmetic.
 *  - Hashed: slice and set are taken from a seeded avalanche hash of
 *    the line address (the Mirage/FlexiCAS skewed-LLC direction). A
 *    fixed seed keeps runs deterministic; distinct seeds give distinct
 *    (randomized) layouts, the building block for index-randomization
 *    defenses against eviction-set construction.
 *
 * Directory tags are always the full line address (Directory::tagOf),
 * so any index function — including a hashed one that destroys the
 * set/tag bit split — can reconstruct a resident line's address.
 */

#ifndef SKIPIT_L2_INDEX_HH
#define SKIPIT_L2_INDEX_HH

#include <cstdint>
#include <stdexcept>
#include <string>

#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace skipit {

/** log2 of the slice count; slice counts must be powers of two. */
inline unsigned
sliceBits(unsigned slices)
{
    SKIPIT_ASSERT(slices >= 1 && (slices & (slices - 1)) == 0,
                  "slice count must be a power of two, got ", slices);
    unsigned bits = 0;
    while ((1u << bits) < slices)
        ++bits;
    return bits;
}

/** How a line address maps to (slice, set). */
enum class IndexKind
{
    Modulo, //!< slice bits above the line offset, then set bits
    Hashed, //!< seeded hash picks both slice and set
};

inline const char *
toString(IndexKind k)
{
    return k == IndexKind::Hashed ? "hashed" : "modulo";
}

/** @p token as an index kind.
 *  @throws std::runtime_error naming the valid values */
inline IndexKind
parseIndexKind(const std::string &token)
{
    if (token == "modulo")
        return IndexKind::Modulo;
    if (token == "hashed")
        return IndexKind::Hashed;
    throw std::runtime_error("l2_index must be modulo or hashed, got '" +
                             token + "'");
}

/** See file comment. A plain value: copy it freely. */
struct L2IndexPolicy
{
    IndexKind kind = IndexKind::Modulo;
    unsigned slices = 1;         //!< power of two
    unsigned sets_per_slice = 1; //!< Directory sets in each slice
    /** Hashed-index key. Fixed default keeps runs reproducible; vary it
     *  to re-randomize the layout (index-randomization defenses). */
    std::uint64_t seed = 0x736b697034686173ULL;

    static L2IndexPolicy
    modulo(unsigned slices, unsigned sets_per_slice)
    {
        return L2IndexPolicy{IndexKind::Modulo, slices, sets_per_slice,
                             0};
    }

    /** Home slice of @p line_addr (any byte address; line-aligned
     *  internally). */
    unsigned
    sliceOf(Addr line_addr) const
    {
        const Addr line = line_addr >> line_shift;
        if (kind == IndexKind::Modulo)
            return static_cast<unsigned>(line &
                                         (static_cast<Addr>(slices) - 1));
        return static_cast<unsigned>(hash(line) &
                                     (static_cast<Addr>(slices) - 1));
    }

    /** Set index within the home slice. */
    unsigned
    setOf(Addr line_addr) const
    {
        const Addr line = line_addr >> line_shift;
        if (kind == IndexKind::Modulo) {
            return static_cast<unsigned>((line >> sliceBits(slices)) %
                                         sets_per_slice);
        }
        // Draw the set from bits disjoint from the slice field so the
        // two stay independent under one hash evaluation.
        return static_cast<unsigned>((hash(line) >> 20) % sets_per_slice);
    }

    bool
    operator==(const L2IndexPolicy &o) const
    {
        return kind == o.kind && slices == o.slices &&
               sets_per_slice == o.sets_per_slice &&
               (kind == IndexKind::Modulo || seed == o.seed);
    }

  private:
    /** splitmix64 finalizer over the seeded line number: full-avalanche,
     *  so low slice bits and mid set bits are independently mixed. */
    std::uint64_t
    hash(Addr line) const
    {
        return mix64(line ^ seed);
    }
};

/**
 * Home slice of a line under the default modulo layout, written out
 * independently of L2IndexPolicy: only tests use it, as the modulo
 * reference. The machine itself uses the wired L2IndexPolicy.
 */
inline unsigned
sliceOfLine(Addr line_addr, unsigned slices)
{
    return static_cast<unsigned>((line_addr >> line_shift) &
                                 (static_cast<Addr>(slices) - 1));
}

} // namespace skipit

#endif // SKIPIT_L2_INDEX_HH
