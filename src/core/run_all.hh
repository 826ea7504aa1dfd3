/**
 * @file
 * The all-figures runner: every figure of the paper off one global
 * deduplicated work queue, executed on the in-process thread pool —
 * whole, or one shard of it per process.
 */

#ifndef CORE_RUN_ALL_HH
#define CORE_RUN_ALL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/figures.hh"

namespace middlesim::core
{

/** One leaf simulation of the campaign. */
struct RunAllItem
{
    /** Content address: equal ids compute the same result. */
    std::string id;
    /** Compute the result into the RunCache (memory and disk). */
    std::function<void()> run;
};

/**
 * The canonical work queue of a full 13-figure campaign: every leaf
 * simulation any figure needs, deduplicated by content address, in a
 * fixed enumeration order. The same options always yield the same
 * sequence, so `--shard=i/N` processes partition it consistently.
 */
struct RunAllQueue
{
    /** Unique items, in canonical (figure enumeration) order. */
    std::vector<RunAllItem> items;
    /** Leaf points requested before deduplication. */
    std::uint64_t requested = 0;
};

RunAllQueue buildRunAllQueue(const FigureOptions &opt);

/**
 * main() body of the run_all driver. Enumerates the leaf simulations
 * of all 13 figures, deduplicates them by content address, prefetches
 * the unique points across the thread pool, then renders each figure
 * in order — emitting output byte-identical to running the individual
 * drivers back to back.
 *
 * Flags: `--jobs=N`, `--cache-dir=PATH`, `--no-cache` (as
 * figureMain); `--metrics-dir=DIR` writes one metrics document per
 * figure (DIR/<fig>.json, identical to the driver's --metrics-out);
 * `--stats-out=PATH` writes a JSON summary of the dedupe ratio and
 * cache hit counts; `--trace-out=DIR` / `--trace-in=DIR` record the
 * reference streams of execution-driven runs / replay the Figure
 * 12/13 sweeps from prior recordings (MIDDLESIM_TRACE=DIR sets both).
 *
 * `--shard=i/N` runs only the unique items whose queue index is
 * i mod N, into the `--cache-dir` it requires, and renders nothing.
 * Once shards 0..N-1 have finished (in any processes, on any hosts
 * sharing the directory), a plain `run_all --cache-dir=DIR` renders
 * the campaign from disk hits, byte-identical to an unsharded run.
 *
 * @return 0 when every shape check of every figure passes (a shard
 * returns 0 once its items are cached).
 */
int runAllMain(int argc, char **argv);

} // namespace middlesim::core

#endif // CORE_RUN_ALL_HH
