/**
 * @file
 * Whole-token number parsing, shared by the tools' flags, the sweep
 * axes, the machine-field table and the fuzz replay bundle.
 */

#ifndef SKIPIT_SIM_PARSE_HH
#define SKIPIT_SIM_PARSE_HH

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>

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

/**
 * @p token, a value of the field or key @p name, as a T: 0 or 1 for a
 * bool, else an unsigned integer that fits T (see unsignedToken()).
 * @throws std::runtime_error "<name> must be ..., got '<token>'"
 */
template <typename T = std::uint64_t>
T
parseField(const std::string &name, const std::string &token)
{
    if (const std::optional<T> v = unsignedToken<T>(token))
        return *v;
    throw std::runtime_error(
        name + (std::is_same_v<T, bool> ? " must be 0 or 1"
                                        : " must be an unsigned integer "
                                          "that fits the field") +
        ", got '" + token + "'");
}

/**
 * @p token as a finite double, when the whole token is one number.
 * Leading space, a trailing character, inf, nan or a value too large
 * for a double gives nullopt.
 */
inline std::optional<double>
finiteToken(const std::string &token)
{
    if (token.empty() || std::isspace(static_cast<unsigned char>(token[0])))
        return std::nullopt;
    char *end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (*end != '\0' || !std::isfinite(v))
        return std::nullopt;
    return v;
}

} // namespace skipit

#endif // SKIPIT_SIM_PARSE_HH
