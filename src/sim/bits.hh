/**
 * @file
 * Helpers for the 64-bit entry bitsets that the LSU window, the L1 and
 * the L2 keep over their fixed tables: bit i stands for entry i, and a
 * walk visits the set bits in ascending order with std::countr_zero.
 */

#ifndef SKIPIT_SIM_BITS_HH
#define SKIPIT_SIM_BITS_HH

#include <cstdint>

namespace skipit {

/** Bit @p i of an entry bitset, for i in 0..63. */
constexpr std::uint64_t
bit(unsigned i)
{
    return std::uint64_t{1} << i;
}

/** The @p n lowest bits, for n in 0..64 (shifting by 64 is undefined). */
constexpr std::uint64_t
lowBits(unsigned n)
{
    return n < 64 ? bit(n) - 1 : ~std::uint64_t{0};
}

} // namespace skipit

#endif // SKIPIT_SIM_BITS_HH
