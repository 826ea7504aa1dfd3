/**
 * @file
 * Command-line and environment parsing shared by every binary.
 *
 * Numbers parse whole-string: anything but a complete, in-range
 * number (empty text, trailing junk, a sign, overflow, NaN) is a
 * fatal() naming the flag or variable. A binary declares its flags
 * once, as a table of Flag rows, and parseFlags() reads argv and the
 * environment against it, so bad input fails once, before any work
 * starts.
 */

#ifndef SIM_PARSE_HH
#define SIM_PARSE_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

namespace middlesim::sim
{

/** Parse `text` as a decimal integer in [lo, hi]; `what` names it. */
std::uint64_t parseUnsigned(const std::string &what,
                            const std::string &text, std::uint64_t lo,
                            std::uint64_t hi);

/** Parse `text` as a finite number in (0, hi]; `what` names it. */
double parsePositive(const std::string &what, const std::string &text,
                     double hi);

/**
 * One row of a binary's flag table: a `--name` flag, the
 * `MIDDLESIM_*` variable that sets the same thing, or both.
 */
struct Flag
{
    /**
     * Applies one value. `what` names where it came from ("--jobs"
     * or "MIDDLESIM_JOBS") for error messages; `text` is never empty.
     */
    using Setter = std::function<void(const std::string &what,
                                      const std::string &text)>;

    /** Flag name without the dashes; nullptr = variable only. */
    const char *name;
    /** Environment variable; nullptr = flag only. */
    const char *env;
    /**
     * Value placeholder shown by --help ("N", "DIR"); nullptr makes
     * the row a switch: a bare `--name`, or a variable set to 0 or 1.
     * A switch's setter runs only when it is on.
     */
    const char *value;
    /** One line of --help text. */
    const char *help;
    Setter set;
};

/**
 * Parse argv[1..argc) against `rows`, then apply the rows in table
 * order: a row whose flag was given takes the flag's value (the last
 * one, if repeated); otherwise a non-empty variable supplies it. An
 * empty variable counts as unset.
 *
 * `--help` prints the table to stdout and exits 0. At most one
 * argument that is not a flag is accepted, and only when `positional`
 * names it (for --help); it is returned ("" when absent). An unknown
 * flag, a switch given a value, a value flag without one, or a
 * second positional argument is one fatal() naming it.
 */
std::string parseFlags(const std::string &tool,
                       const std::vector<Flag> &rows, int argc,
                       char *const *argv,
                       const char *positional = nullptr);

/** Apply the environment variables of `rows` alone (no argv). */
void applyEnv(const std::vector<Flag> &rows);

/** Print the --help text of one command line. */
void printUsage(std::ostream &os, const std::string &tool,
                const std::vector<Flag> &rows,
                const char *positional = nullptr);

/** Setter storing the text in `dst`. */
Flag::Setter store(std::string &dst);

/** Setter for a switch: sets `dst` to true. */
Flag::Setter storeTrue(bool &dst);

/** Setter storing a whole number in [lo, hi] (see parseUnsigned). */
template <typename T>
Flag::Setter
store(T &dst, std::uint64_t lo,
      std::uint64_t hi = std::numeric_limits<T>::max())
{
    return [&dst, lo, hi](const std::string &what,
                          const std::string &text) {
        dst = static_cast<T>(parseUnsigned(what, text, lo, hi));
    };
}

} // namespace middlesim::sim

#endif // SIM_PARSE_HH
