/**
 * @file
 * Figure-reproduction harnesses.
 *
 * One function per evaluation figure of the paper (Figures 4-16;
 * Figures 1-3 are block diagrams). Each returns the measured series,
 * the digitized paper series, a printable table, and the shape checks
 * that encode the paper's qualitative conclusions for that figure,
 * rendered from the figure's leaf simulations (core/leaves.hh). The
 * bench binaries, the integration tests and the examples all share
 * these harnesses.
 */

#ifndef CORE_FIGURES_HH
#define CORE_FIGURES_HH

#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/metrics_io.hh"
#include "sim/parse.hh"
#include "stats/series.hh"
#include "stats/table.hh"

namespace middlesim::core
{

/** Effort knobs shared by all figure harnesses. */
struct FigureOptions
{
    /** Runs per measured point (variability methodology). */
    unsigned runs = 3;
    /** Scales warmup/measure intervals (tests use < 1). */
    double timeScale = 1.0;
    std::uint64_t seed = 1;

    /** Coherence protocol applied to every measured point. */
    sim::CoherenceProtocol protocol = sim::CoherenceProtocol::SnoopBus;
    /** NUMA node count (directory protocol; 1 = flat UMA machine). */
    unsigned numaNodes = 1;
    /** Interconnect topology (directory protocol; ring is default). */
    sim::Topology topology = sim::Topology::Ring;
    /** Home occupancy slots (0 = contention-free directory homes). */
    unsigned dirOccupancy = 0;

    /** Upper bounds of the numeric knobs (flags and environment). */
    static constexpr unsigned kMaxRuns = 1000;
    static constexpr double kMaxTimeScale = 1000.0;
    static constexpr unsigned kMaxNumaNodes = 1024;
    static constexpr unsigned kMaxDirOccupancy = 1024;

    /**
     * The flag-table rows of these options, writing into *this:
     * MIDDLESIM_RUNS, MIDDLESIM_QUICK (=1: single run, 0.5x
     * intervals), MIDDLESIM_TIMESCALE, and --protocol, --numa-nodes,
     * --topology and --dir-occupancy with their MIDDLESIM_*
     * variables.
     */
    std::vector<sim::Flag> flags();

    /**
     * The environment-only pass over flags(). An empty variable
     * counts as unset; a malformed or out-of-range value is a fatal
     * error naming the variable.
     */
    static FigureOptions fromEnv();

    /**
     * Fatal unless every leaf of `figures` runs on a valid machine
     * (e.g. --dir-occupancy without --protocol=directory), and when a
     * figure that sets its own machine (fig_manycore) is given a
     * machine option. The campaign main calls this before any work
     * is queued.
     */
    void validate(const std::vector<std::string> &figures) const;
};

/** One qualitative conclusion of the paper, checked on our data. */
struct ShapeCheck
{
    std::string what;
    bool pass = false;
    std::string detail;
};

/** Everything a figure reproduction produces. */
struct FigureResult
{
    std::string id;
    std::string title;
    std::vector<stats::Series> measured;
    std::vector<stats::Series> paperRef;
    stats::Table table;
    std::vector<ShapeCheck> checks;

    /**
     * Per-grid-point metric snapshots of every simulation the figure
     * consumed, keyed by pointName(). Serialized by --metrics-dir.
     */
    MetricsMap metricsByPoint;

    bool
    allPass() const
    {
        for (const auto &c : checks) {
            if (!c.pass)
                return false;
        }
        return true;
    }
};

FigureResult runFig04(const FigureOptions &opt = {});
FigureResult runFig05(const FigureOptions &opt = {});
FigureResult runFig06(const FigureOptions &opt = {});
FigureResult runFig07(const FigureOptions &opt = {});
FigureResult runFig08(const FigureOptions &opt = {});
FigureResult runFig09(const FigureOptions &opt = {});
FigureResult runFig10(const FigureOptions &opt = {});
FigureResult runFig11(const FigureOptions &opt = {});
FigureResult runFig12(const FigureOptions &opt = {});
FigureResult runFig13(const FigureOptions &opt = {});
FigureResult runFig14(const FigureOptions &opt = {});
FigureResult runFig15(const FigureOptions &opt = {});
FigureResult runFig16(const FigureOptions &opt = {});

/** Ids of the paper's 13 figures ("fig04".."fig16"), in order. */
const std::vector<std::string> &paperFigures();

} // namespace middlesim::core

#endif // CORE_FIGURES_HH
