/**
 * @file
 * Rendering of figure reproductions (tables + shape-check verdicts).
 */

#ifndef CORE_REPORT_HH
#define CORE_REPORT_HH

#include <ostream>

#include "core/figures.hh"

namespace middlesim::core
{

/** Print one reproduced figure: header, table, checks, verdict. */
void printFigure(const FigureResult &fig, std::ostream &os);

} // namespace middlesim::core

#endif // CORE_REPORT_HH
