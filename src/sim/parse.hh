/**
 * @file
 * Whole-token unsigned integer parsing, shared by the tools' flags and
 * the sweep axes.
 */

#ifndef SKIPIT_SIM_PARSE_HH
#define SKIPIT_SIM_PARSE_HH

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

namespace skipit {

/**
 * @p token as an unsigned integer of type T, when the whole token is
 * one number: decimal, 0x-prefixed hex or 0-prefixed octal. A sign,
 * leading space, trailing character or value too large for T gives
 * nullopt.
 */
template <typename T = std::uint64_t>
std::optional<T>
unsignedToken(const std::string &token)
{
    if (token.empty() || !std::isdigit(static_cast<unsigned char>(token[0])))
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(token.c_str(), &end, 0);
    if (errno != 0 || *end != '\0' || v > std::numeric_limits<T>::max())
        return std::nullopt;
    return static_cast<T>(v);
}

} // namespace skipit

#endif // SKIPIT_SIM_PARSE_HH
