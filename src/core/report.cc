#include "core/report.hh"

namespace middlesim::core
{

void
printFigure(const FigureResult &fig, std::ostream &os)
{
    os << "=== " << fig.id << ": " << fig.title << " ===\n\n";
    fig.table.print(os);
    os << "\nshape checks:\n";
    for (const auto &c : fig.checks) {
        os << "  [" << (c.pass ? "PASS" : "FAIL") << "] " << c.what
           << "  (" << c.detail << ")\n";
    }
    os << (fig.allPass() ? "=> all shape checks passed\n"
                         : "=> SOME SHAPE CHECKS FAILED\n");
}

} // namespace middlesim::core
