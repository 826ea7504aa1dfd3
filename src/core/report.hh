/**
 * @file
 * Rendering of figure reproductions (tables + shape-check verdicts).
 */

#ifndef CORE_REPORT_HH
#define CORE_REPORT_HH

#include <ostream>
#include <string>

#include "core/figures.hh"
#include "stats/table.hh"

namespace middlesim::core
{

/** A table cell or check detail: `v` with `prec` decimals. */
inline std::string
fmt(double v, int prec = 2)
{
    return stats::Table::num(v, prec);
}

/** Print one reproduced figure: header, table, checks, verdict. */
void printFigure(const FigureResult &fig, std::ostream &os);

} // namespace middlesim::core

#endif // CORE_REPORT_HH
