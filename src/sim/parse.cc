#include "sim/parse.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <optional>

#include "sim/log.hh"

namespace middlesim::sim
{

std::uint64_t
parseUnsigned(const std::string &what, const std::string &text,
              std::uint64_t lo, std::uint64_t hi)
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
    return v;
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

namespace
{

/** Apply one row from its variable, if that is set and non-empty. */
void
applyEnvRow(const Flag &row)
{
    if (!row.env)
        return;
    const char *text = std::getenv(row.env);
    if (!text || *text == '\0')
        return;
    if (row.value)
        row.set(row.env, text);
    else if (parseUnsigned(row.env, text, 0, 1) == 1)
        row.set(row.env, "1");
}

} // namespace

std::string
parseFlags(const std::string &tool, const std::vector<Flag> &rows,
           int argc, char *const *argv, const char *positional)
{
    std::vector<std::optional<std::string>> given(rows.size());
    std::string arg_positional;
    bool have_positional = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help") {
            printUsage(std::cout, tool, rows, positional);
            std::exit(0);
        }
        if (arg.rfind("--", 0) != 0) {
            if (!positional || have_positional)
                fatal(tool, ": unexpected argument '", arg,
                      "' (see --help)");
            arg_positional = arg;
            have_positional = true;
            continue;
        }
        const std::size_t eq = arg.find('=');
        const std::string name = arg.substr(2, eq - 2);
        std::size_t r = 0;
        while (r < rows.size() &&
               !(rows[r].name && name == rows[r].name))
            ++r;
        if (r == rows.size())
            fatal(tool, ": unknown flag '", arg, "' (see --help)");
        const Flag &row = rows[r];
        if (!row.value) {
            if (eq != std::string::npos)
                fatal(tool, ": --", name, " takes no value");
            given[r] = "1";
        } else {
            if (eq == std::string::npos || eq + 1 == arg.size())
                fatal(tool, ": --", name, " needs a value (--", name,
                      "=", row.value, ")");
            given[r] = arg.substr(eq + 1);
        }
    }
    for (std::size_t r = 0; r < rows.size(); ++r) {
        if (given[r])
            rows[r].set(std::string("--") + rows[r].name, *given[r]);
        else
            applyEnvRow(rows[r]);
    }
    return arg_positional;
}

void
applyEnv(const std::vector<Flag> &rows)
{
    for (const Flag &row : rows)
        applyEnvRow(row);
}

void
printUsage(std::ostream &os, const std::string &tool,
           const std::vector<Flag> &rows, const char *positional)
{
    os << "usage: " << tool << " [flags]";
    if (positional)
        os << ' ' << positional;
    os << '\n';
    for (const Flag &row : rows) {
        const char *value = row.value ? row.value : "0|1";
        if (!row.name) {
            os << "  " << row.env << '=' << value;
        } else {
            os << "  --" << row.name;
            if (row.value)
                os << '=' << row.value;
            if (row.env)
                os << "  (or " << row.env << '=' << value << ')';
        }
        os << "\n      " << row.help << '\n';
    }
    os << "  --help\n      print this list\n";
}

Flag::Setter
store(std::string &dst)
{
    return [&dst](const std::string &, const std::string &text) {
        dst = text;
    };
}

Flag::Setter
storeTrue(bool &dst)
{
    return [&dst](const std::string &, const std::string &) {
        dst = true;
    };
}

} // namespace middlesim::sim
