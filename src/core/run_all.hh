/**
 * @file
 * The campaign runner behind every figure binary and run_all: the
 * figures' leaf simulations off one global deduplicated work queue,
 * executed on the in-process thread pool — whole, or one shard of it
 * per process.
 */

#ifndef CORE_RUN_ALL_HH
#define CORE_RUN_ALL_HH

#include <string>
#include <vector>

namespace middlesim::core
{

/**
 * main() body of every figure driver and of run_all. Reads the leaf
 * lists of `figures` (figureRow(), core/leaves.hh: ids as in
 * paperFigures(), or "fig_manycore"), deduplicates them by content
 * address, prefetches the unique leaves across the thread pool, then
 * renders each figure in order — output byte-identical to running the
 * single-figure drivers back to back.
 *
 * Every binary takes the same flags; `--help` lists them with their
 * MIDDLESIM_* variables. `--metrics-dir=DIR` writes DIR/<id>.json per
 * figure; `--stats-out=PATH` writes the dedupe ratio and cache hit
 * counts.
 *
 * `--shard=i/N` runs only the unique leaves whose queue index is
 * i mod N, into the `--cache-dir` it requires, and renders nothing.
 * Once shards 0..N-1 have finished (in any processes, on any hosts
 * sharing the directory), a plain run over the same `--cache-dir`
 * renders the campaign from disk hits, byte-identical to an unsharded
 * run.
 *
 * @return 0 when every shape check of every figure passes (a shard
 * returns 0 once its leaves are cached).
 */
int runAllMain(const std::vector<std::string> &figures, int argc,
               char **argv);

} // namespace middlesim::core

#endif // CORE_RUN_ALL_HH
