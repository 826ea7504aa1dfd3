/**
 * @file
 * Whole-string numeric parsing for command-line flags and environment
 * variables. Anything but a complete, in-range number (empty text,
 * trailing junk, a sign, overflow, NaN) is a fatal() naming the flag
 * or variable, so bad input fails once, before any work starts.
 */

#ifndef SIM_PARSE_HH
#define SIM_PARSE_HH

#include <string>

namespace middlesim::sim
{

/** Parse `text` as a decimal integer in [lo, hi]; `what` names it. */
unsigned parseUnsigned(const std::string &what, const std::string &text,
                       unsigned lo, unsigned hi);

/** Parse `text` as a finite number in (0, hi]; `what` names it. */
double parsePositive(const std::string &what, const std::string &text,
                     double hi);

} // namespace middlesim::sim

#endif // SIM_PARSE_HH
