/**
 * @file
 * Whole-token parsing for the tools' integer flags.
 */

#ifndef SKIPIT_TOOLS_PARSE_NUMBER_HH
#define SKIPIT_TOOLS_PARSE_NUMBER_HH

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

namespace skipit {

/**
 * Parse @p token, the value of @p flag, as an unsigned integer of type
 * T. The whole token must be one number: decimal, 0x-prefixed hex or
 * 0-prefixed octal (so `--peek 0x1000` works). A sign, leading space,
 * trailing character or value too large for T prints
 * "error: <flag> expects an unsigned integer, got '<token>'" and exits
 * with status 2.
 */
template <typename T = std::uint64_t>
T
parseUnsigned(const char *flag, const std::string &token)
{
    if (!token.empty() && std::isdigit(static_cast<unsigned char>(token[0]))) {
        errno = 0;
        char *end = nullptr;
        const unsigned long long v = std::strtoull(token.c_str(), &end, 0);
        if (errno == 0 && *end == '\0' && v <= std::numeric_limits<T>::max())
            return static_cast<T>(v);
    }
    std::fprintf(stderr, "error: %s expects an unsigned integer, got '%s'\n",
                 flag, token.c_str());
    std::exit(2);
}

} // namespace skipit

#endif // SKIPIT_TOOLS_PARSE_NUMBER_HH
