/**
 * @file
 * The leaf simulations every figure is rendered from.
 *
 * A leaf is a (kind, ExperimentSpec) pair: a pure function of the
 * spec and its seed under the Alameldeen-Wood multi-run method. Each
 * figure has one row (figureRow()) that lists its leaves, and every
 * consumer reads that row: the campaign queue and `--shard`
 * (core/run_all.hh), FigureOptions::validate(), and the figure's
 * renderer. Every leaf is computed by one fetch-or-simulate path
 * through the RunCache (fetchLeaf) and fanned out by one flat,
 * deduplicating parallelFor (fetchLeaves).
 */

#ifndef CORE_LEAVES_HH
#define CORE_LEAVES_HH

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/figures.hh"
#include "core/metrics_io.hh"
#include "mem/sweep.hh"
#include "stats/distribution.hh"

namespace middlesim::core
{

/** What a leaf simulation measures; indexes LeafResult. */
enum class LeafKind
{
    /** A plain measured run (RunResult). */
    Run,
    /** The Figure 10 copyback timeline (Fig10Data). */
    Fig10,
    /** Figure 11 live memory after collection (LivePoint). */
    Live,
    /** A Figure 12/13 uniprocessor cache-size sweep (SweepOutcome). */
    Sweep,
    /** A Figure 14/15 communication footprint (CommPoint). */
    Comm,
};

/** One leaf simulation. */
struct Leaf
{
    LeafKind kind = LeafKind::Run;
    ExperimentSpec spec;
};

/** Timeline bin width of Figure 10 (~1 ms at 248 MHz). */
inline constexpr sim::Tick fig10BinWidth = 250'000;

/** Figure 10 timeline payload. */
struct Fig10Data
{
    /** Simulated time when measurement began. */
    sim::Tick t0 = 0;
    /** Copyback counts per absolute bin (width fig10BinWidth). */
    std::vector<std::uint64_t> bins;
    /** Collection windows: (start, end), in absolute ticks. */
    std::vector<std::pair<sim::Tick, sim::Tick>> gcWindows;
    /** pointName() of the spec (part of the cached payload). */
    std::string point;
    sim::MetricSnapshot snap;
};

/** Figure 11 payload: live memory after collection. */
struct LivePoint
{
    double mb = 0.0;
    /** pointName() of the spec (part of the cached payload). */
    std::string point;
    sim::MetricSnapshot snap;
};

/** Figure 12/13 payload: miss counts at every paper cache size. */
struct SweepOutcome
{
    std::vector<mem::SweepResult> icache;
    std::vector<mem::SweepResult> dcache;
    std::uint64_t instructions = 0;
    /** pointName() of the spec (part of the cached payload). */
    std::string point;
    sim::MetricSnapshot snap;

    double
    imissPer1000(std::size_t i) const
    {
        return icache[i].missesPer1000(instructions);
    }

    double
    dmissPer1000(std::size_t i) const
    {
        return dcache[i].missesPer1000(instructions);
    }
};

/** Figure 14/15 payload: the c2c concentration over touched lines. */
struct CommPoint
{
    stats::ConcentrationCurve curve{std::vector<std::uint64_t>{}};
    std::uint64_t touchedLines = 0;
    /** pointName() of the spec (part of the cached payload). */
    std::string point;
    sim::MetricSnapshot snap;
};

/** A leaf's payload; the alternative index is its LeafKind. */
using LeafResult =
    std::variant<RunResult, Fig10Data, LivePoint, SweepOutcome, CommPoint>;

/** Content address of a leaf: equal addresses, equal payloads. */
std::string leafAddress(const Leaf &leaf);

/** The metrics snapshot a payload carries. */
const sim::MetricSnapshot &leafSnapshot(const LeafResult &result);

/**
 * The one fetch-or-simulate path: the leaf's payload from the
 * RunCache (memo, then disk), else simulated and stored. A sweep leaf
 * under --trace-in is replayed from its recording instead, and the
 * replay is memoized under a kind of its own ("sweep-replay"), since
 * a replay's snapshot lacks the CPU, OS and JVM layers of an
 * execution's; without a valid recording the leaf executes. Results
 * are byte-identical to an uncached simulation.
 */
LeafResult fetchLeaf(const Leaf &leaf);

/**
 * fetchLeaf() over `leaves`, in order. Leaves with equal addresses
 * are fetched once and share one payload; the unique ones fan out in
 * one flat parallelFor over the process-wide thread pool, so the
 * results are byte-identical for any job count. Must not be called
 * from a pool worker.
 */
std::vector<LeafResult> fetchLeaves(const std::vector<Leaf> &leaves);

/** Cumulative fetchLeaves() dedupe accounting. */
struct GridDedupeStats
{
    std::uint64_t requested = 0;
    std::uint64_t unique = 0;
};

GridDedupeStats gridDedupeStats();
void resetGridDedupeStats();

/**
 * fetchLeaves() for leaves of one kind: the payloads in leaf order,
 * with each leaf's snapshot recorded in `metrics` under its
 * pointName().
 */
template <typename Payload>
std::vector<Payload>
fetchPayloads(const std::vector<Leaf> &leaves, MetricsMap &metrics)
{
    std::vector<LeafResult> results = fetchLeaves(leaves);
    std::vector<Payload> payloads;
    payloads.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        metrics.emplace(pointName(leaves[i].spec),
                        leafSnapshot(results[i]));
        payloads.push_back(std::get<Payload>(std::move(results[i])));
    }
    return payloads;
}

/** One figure of the campaign. */
struct FigureRow
{
    /** "fig04".."fig16", or "fig_manycore". */
    const char *id;
    /**
     * The leaves the figure consumes, in the order its renderer reads
     * them. Every paper leaf carries the options' machine (protocol,
     * NUMA nodes, topology, home occupancy), except that a Fig 12/13
     * sweep point is one node and a Fig 16 point takes the gcd of the
     * node count and its L2 groups. fig_manycore sets its own machine
     * per point and refuses machine options.
     */
    std::vector<Leaf> (*leaves)(const FigureOptions &opt);
    /** Fetch the leaves and render the figure. */
    FigureResult (*render)(const FigureOptions &opt);
};

/**
 * The row of figure `id` (paperFigures(), or "fig_manycore"); fatal
 * when there is none.
 */
const FigureRow &figureRow(const std::string &id);

} // namespace middlesim::core

#endif // CORE_LEAVES_HH
