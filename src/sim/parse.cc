#include "sim/parse.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "sim/log.hh"

namespace middlesim::sim
{

unsigned
parseUnsigned(const std::string &what, const std::string &text,
              unsigned lo, unsigned hi)
{
    // strtoull accepts leading space and a sign; a count has neither.
    const bool digits = !text.empty() && std::isdigit(
        static_cast<unsigned char>(text.front()));
    char *end = nullptr;
    errno = 0;
    const unsigned long long v =
        digits ? std::strtoull(text.c_str(), &end, 10) : 0;
    if (!digits || *end != '\0' || errno == ERANGE || v < lo || v > hi) {
        fatal(what, ": '", text, "' is not a whole number in [", lo,
              ", ", hi, "]");
    }
    return static_cast<unsigned>(v);
}

double
parsePositive(const std::string &what, const std::string &text,
              double hi)
{
    char *end = nullptr;
    errno = 0;
    const double v = text.empty() ? 0.0 : std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || errno == ERANGE ||
        !std::isfinite(v) || !(v > 0.0) || v > hi) {
        fatal(what, ": '", text, "' is not a number in (0, ", hi, "]");
    }
    return v;
}

} // namespace middlesim::sim
