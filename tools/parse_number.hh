/**
 * @file
 * Whole-token parsing for the tools' flag values (a bad value prints
 * "error: <why>" and exits with status 2), and reading their input files.
 */

#ifndef SKIPIT_TOOLS_PARSE_NUMBER_HH
#define SKIPIT_TOOLS_PARSE_NUMBER_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/parse.hh"
#include "soc/soc.hh"

namespace skipit {

/** Print "error: @p why" and exit with status 2: a flag had a value
 *  the tool cannot use. */
[[noreturn]] inline void
badValue(const std::string &why)
{
    std::fprintf(stderr, "error: %s\n", why.c_str());
    std::exit(2);
}

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
    if (const std::optional<T> v = unsignedToken<T>(token))
        return *v;
    badValue(std::string(flag) + " expects an unsigned integer, got '" +
             token + "'");
}

/**
 * Parse @p token, the value of @p flag, as a finite floating-point
 * number. The whole token must be one number. Leading space, a trailing
 * character, inf, nan or a value too large for a double prints
 * "error: <flag> expects a number, got '<token>'" and exits with status
 * 2.
 */
inline double
parseFinite(const char *flag, const std::string &token)
{
    if (const std::optional<double> v = finiteToken(token))
        return *v;
    badValue(std::string(flag) + " expects a number, got '" + token + "'");
}

/**
 * @p parse(@p token) for a parser that throws std::runtime_error on a
 * bad token (SoCConfig::set, a replay bundle reader): its message goes
 * through badValue().
 */
template <typename Parse>
auto
parseWith(Parse parse, const std::string &token)
{
    try {
        return parse(token);
    } catch (const std::runtime_error &e) {
        badValue(e.what());
    }
}

/** The contents of file @p path.
 *  @throws std::runtime_error "cannot open <path>" */
inline std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Apply one `--set NAME=VALUE` through @p set on @p target
 *  (SoCConfig::set, KvSpec::setMachine): a missing '=', an unknown NAME
 *  or a bad VALUE goes through badValue(). */
template <typename Target>
void
applySet(const std::string &assignment, Target &target,
         bool (Target::*set)(const std::string &, const std::string &))
{
    const std::size_t eq = assignment.find('=');
    if (eq == std::string::npos)
        badValue("--set expects NAME=VALUE, got '" + assignment + "'");
    const std::string name = assignment.substr(0, eq);
    const auto setValue = [&](const std::string &value) {
        return (target.*set)(name, value);
    };
    if (!parseWith(setValue, assignment.substr(eq + 1)))
        badValue(SoCConfig::unknownField(name));
}

/** The usage lines of `--set`, listing SoCConfig::fieldNames(). */
inline std::string
setUsage()
{
    std::string text =
        "\n  --set NAME=VALUE  set a machine field (repeatable), one of:";
    std::size_t i = 0;
    for (const std::string &name : SoCConfig::fieldNames())
        text += (i++ % 5 == 0 ? "\n    " : " ") + name;
    return text + "\n";
}

} // namespace skipit

#endif // SKIPIT_TOOLS_PARSE_NUMBER_HH
