/**
 * @file
 * main() of every figure binary and of run_all. Built once per binary
 * name: MIDDLESIM_FIGURE is the figure id a driver renders ("fig04",
 * "fig_manycore", ...); run_all is built without it and renders the
 * paper's 13 figures. See core/run_all.hh for the flags.
 */

#include "core/figures.hh"
#include "core/run_all.hh"

int
main(int argc, char **argv)
{
#ifdef MIDDLESIM_FIGURE
    return middlesim::core::runAllMain({MIDDLESIM_FIGURE}, argc, argv);
#else
    return middlesim::core::runAllMain(middlesim::core::paperFigures(),
                                       argc, argv);
#endif
}
