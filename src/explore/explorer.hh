/**
 * @file
 * Exhaustive coherence-interleaving explorer (stateless model
 * checking with dynamic partial-order reduction).
 *
 * The engine enumerates schedulable interleavings of the per-CPU
 * streams by depth-first search over scheduling choices, executing
 * each explored path through an ExploreScheduler with every memory
 * invariant checker armed. Sleep sets prune the search: after a
 * branch `a` has been fully explored at a node, every sibling branch
 * carries `a` asleep until a conflicting reference executes, so no
 * two explored complete executions are Mazurkiewicz-equivalent under
 * the independence relation of interleave.hh. With DPOR disabled the
 * same DFS enumerates every interleaving naively (the cross-check
 * used by tests and the pruning-ratio denominator).
 *
 * Root-level scheduling choices are independent subtrees, so --jobs
 * fans them out over a sim::ThreadPool; every subtree is always
 * explored to its own completion (a violating subtree stops at its
 * first violation), which makes all reported counts — and hence the
 * JSON report — byte-identical across job counts.
 */

#ifndef EXPLORE_EXPLORER_HH
#define EXPLORE_EXPLORER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "explore/interleave.hh"
#include "mem/fault.hh"
#include "trace/format.hh"
#include "trace/reader.hh"

namespace middlesim::explore
{

/** Engine knobs. */
struct ExploreOptions
{
    /** Longest schedule prefix explored (0 = all references). */
    unsigned depthBudget = 0;
    /** Sleep-set pruning; off = naive exhaustive enumeration (the
     *  oracle test_explore checks DPOR against). */
    bool dpor = true;
    /** Per-root-subtree cap on completed paths (0 = unlimited). */
    std::uint64_t maxExecutionsPerBranch = 0;
    /** Worker threads over root subtrees. */
    unsigned jobs = 1;
    /** Shrink a violating schedule to a minimal repro via ddmin. */
    bool shrink = true;
};

/** Deterministic exploration counters. */
struct ExploreStats
{
    /** Complete (or violating) executions explored. */
    std::uint64_t executions = 0;
    /** Prefixes abandoned because every enabled CPU slept. */
    std::uint64_t sleepBlocked = 0;
    /** References executed across all paths (incl. prefix replay). */
    std::uint64_t transitions = 0;
    /** References checked by the invariant layer. */
    std::uint64_t refsChecked = 0;
    /** Capacity/conflict misses seen (nonzero weakens independence). */
    std::uint64_t capacityMisses = 0;
    /** Depth budget or execution cap cut some subtree short. */
    bool truncated = false;
};

/** Outcome of one exploration. */
struct ExploreResult
{
    ExploreStats stats;

    bool foundViolation = false;
    /** First violated invariant in DFS order. */
    std::string invariant;
    std::string detail;
    /** The full violating interleaving (ends at the violation). */
    std::vector<trace::TraceRecord> schedule;
    /** ddmin-minimized repro still firing the same invariant. */
    std::vector<trace::TraceRecord> repro;
    /** Replay probes spent shrinking. */
    unsigned shrinkProbes = 0;

    /** Naive interleaving count (multinomial; may saturate). */
    std::uint64_t naive = 0;
    bool naiveSaturated = false;

    /** naive / executions (1.0 when nothing was explored). */
    double pruningRatio() const
    {
        return stats.executions
                   ? static_cast<double>(naive) /
                         static_cast<double>(stats.executions)
                   : 1.0;
    }
};

/**
 * Explore every schedulable interleaving of `streams` on the machine
 * of `header`, with `fault` (may be nullptr) armed in the hierarchy
 * and all memory invariants checked on every path.
 */
ExploreResult explore(const trace::TraceHeader &header,
                      const Streams &streams,
                      const mem::FaultPlan *fault,
                      const ExploreOptions &opts = ExploreOptions());

/** Configuration echoed into the JSON report. */
struct ReportConfig
{
    unsigned cpus = 0;
    unsigned cpusPerL2 = 1;
    sim::CoherenceProtocol protocol = sim::CoherenceProtocol::SnoopBus;
    unsigned numaNodes = 1;
    sim::Topology topology = sim::Topology::Ring;
    unsigned dirOccupancy = 0;
    unsigned blocks = 0;
    unsigned refs = 0;
    std::uint64_t seed = 0;
    std::string inject = "none";
    unsigned depthBudget = 0;
    /** Repro path ("" when none was written). */
    std::string reproPath;
    /** Wall seconds; < 0 omits the field (deterministic report). */
    double wallSeconds = -1.0;
};

/**
 * The `middlesim-explore-v1` JSON report. Deterministic for a given
 * (result, config) with config.wallSeconds < 0: byte-identical across
 * runs and job counts.
 */
std::string reportJson(const ExploreResult &result,
                       const ReportConfig &config);

} // namespace middlesim::explore

#endif // EXPLORE_EXPLORER_HH
