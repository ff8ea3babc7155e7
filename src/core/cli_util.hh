/**
 * @file
 * Audited number parsing, shared by the example CLIs, the benches and
 * every text trace line.
 *
 * These used to be copy-pasted per binary with drifting edge-case
 * behavior (overflow handling, leading '+'/whitespace, inf/nan). One
 * strict contract now applies everywhere:
 *
 *   parseInt / parseU64: decimal digits only, after a '-' for a
 *   signed type. Rejects empty strings, '+', whitespace, hex, partial
 *   parses, and out-of-range values.
 *
 *   parseF64: plain decimal/scientific notation starting with a
 *   digit, '-' or '.'. Rejects empty strings, leading whitespace or
 *   '+', hex floats ("0x1p3"), "inf"/"nan" tokens, partial parses,
 *   and anything that overflows/underflows to a non-finite or
 *   ERANGE result. A flag value that survives parseF64 is a finite
 *   double spelled the way a person would type it.
 *
 * parseFaultFlag is the one parser of the four --fault-* flags
 * (emmcsim_cli and hps_case_study both take them).
 */

#ifndef EMMCSIM_CORE_CLI_UTIL_HH
#define EMMCSIM_CORE_CLI_UTIL_HH

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

#include "fault/injector.hh"

namespace emmcsim::core {

/**
 * Strict decimal parse of the whole string into @p v: std::from_chars
 * reads a '-' for a signed @p Int only, and no '+', blank or prefix.
 * @retval true and sets @p v when @p s is a valid in-range value.
 */
template <std::integral Int>
bool
parseInt(std::string_view s, Int &v)
{
    Int n = 0;
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), n);
    if (ec != std::errc{} || end != s.data() + s.size())
        return false;
    v = n;
    return true;
}

/** Strict unsigned decimal parse of the whole string (parseInt). */
inline bool
parseU64(std::string_view s, std::uint64_t &v)
{
    return parseInt(s, v);
}

/**
 * Strict finite-double parse of the whole string.
 * @retval true and sets @p v when @p s is a plain finite double.
 */
inline bool
parseF64(const std::string &s, double &v)
{
    if (s.empty())
        return false;
    // strtod would skip leading whitespace and accept "+1", "inf",
    // "nan", and hex floats; a CLI flag should accept none of those.
    const unsigned char first = static_cast<unsigned char>(s[0]);
    if (!std::isdigit(first) && s[0] != '-' && s[0] != '.')
        return false;
    if (s.find_first_of("xX") != std::string::npos)
        return false;
    errno = 0;
    char *end = nullptr;
    const double x = std::strtod(s.c_str(), &end);
    if (errno != 0 || end != s.c_str() + s.size() ||
        !std::isfinite(x))
        return false;
    v = x;
    return true;
}

/**
 * Parse a --jobs=N value: an integer in [1, 1024]. 0 is rejected —
 * "use the hardware" is spelled by omitting the flag.
 * @retval true and sets @p jobs on success.
 */
inline bool
parseJobs(const std::string &s, unsigned &jobs)
{
    std::uint64_t n = 0;
    if (!parseU64(s, n) || n == 0 || n > 1024)
        return false;
    jobs = static_cast<unsigned>(n);
    return true;
}

/** True for the four NAND fault-injection flags parseFaultFlag takes. */
inline bool
isFaultFlag(const std::string &name)
{
    return name == "--fault-rber" || name == "--fault-seed" ||
           name == "--fault-program-fail" || name == "--fault-erase-fail";
}

/**
 * Parse the value of one --fault-* flag into @p cfg and turn injection
 * on: --fault-rber takes a base RBER >= 0, --fault-seed a u64, and
 * --fault-program-fail / --fault-erase-fail a probability in [0, 1].
 * @retval false on a malformed or out-of-range value (callers report
 *         "bad <flag>: <value>"), or when @p name is not a fault flag.
 */
inline bool
parseFaultFlag(const std::string &name, const std::string &value,
               fault::FaultConfig &cfg)
{
    cfg.enabled = true;
    if (name == "--fault-seed")
        return parseU64(value, cfg.seed);
    if (name == "--fault-rber")
        return parseF64(value, cfg.baseRber) && cfg.baseRber >= 0;
    double *prob = name == "--fault-program-fail" ? &cfg.programFailProb
                   : name == "--fault-erase-fail" ? &cfg.eraseFailProb
                                                  : nullptr;
    return prob != nullptr && parseF64(value, *prob) && *prob >= 0 &&
           *prob <= 1;
}

} // namespace emmcsim::core

#endif // EMMCSIM_CORE_CLI_UTIL_HH
