#include "core/run_all.hh"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/checker.hh"
#include "core/cache.hh"
#include "core/leaves.hh"
#include "core/metrics_io.hh"
#include "core/report.hh"
#include "core/trace_run.hh"
#include "sim/log.hh"
#include "sim/metrics.hh"
#include "sim/parse.hh"
#include "sim/threadpool.hh"

namespace middlesim::core
{

namespace
{

void
writeStatsJson(std::ostream &os, std::uint64_t requested,
               std::uint64_t unique, double prefetch_seconds)
{
    const RunCache::Stats cs = RunCache::global().stats();
    const GridDedupeStats gs = gridDedupeStats();
    os << "{\n"
       << "  \"schema\": \"middlesim-runall-stats-v1\",\n"
       << "  \"requested_points\": " << requested << ",\n"
       << "  \"unique_points\": " << unique << ",\n"
       << "  \"dedupe_ratio\": "
       << sim::formatDouble(
              requested ? static_cast<double>(unique) /
                              static_cast<double>(requested)
                        : 1.0)
       << ",\n"
       << "  \"prefetch_seconds\": "
       << sim::formatDouble(prefetch_seconds) << ",\n"
       << "  \"grid_requested\": " << gs.requested << ",\n"
       << "  \"grid_unique\": " << gs.unique << ",\n"
       << "  \"cache_memory_hits\": " << cs.memoryHits << ",\n"
       << "  \"cache_disk_hits\": " << cs.diskHits << ",\n"
       << "  \"cache_misses\": " << cs.misses << ",\n"
       << "  \"cache_corrupt_misses\": " << cs.corruptMisses << ",\n"
       << "  \"cache_stores\": " << cs.stores << ",\n"
       << "  \"jobs_used\": " << sim::ThreadPool::global().jobs()
       << ",\n"
       << "  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << "\n"
       << "}\n";
}

/**
 * Render each figure (assembled from cache hits after the prefetch),
 * emitting exactly what its single-figure driver would print.
 * @return true when every shape check passes.
 */
bool
renderFigures(const std::vector<std::string> &figures,
              const FigureOptions &opt, const std::string &metrics_dir)
{
    bool all_pass = true;
    for (const std::string &id : figures) {
        const FigureResult fig = figureRow(id).render(opt);
        printFigure(fig, std::cout);
        all_pass = all_pass && fig.allPass();
        if (!metrics_dir.empty()) {
            const std::string path =
                metrics_dir + "/" + fig.id + ".json";
            std::ofstream os(path);
            if (!os)
                fatal("run_all: cannot open '", path,
                      "' for writing");
            writeMetricsJson(os, fig.id, fig.metricsByPoint);
        }
    }
    return all_pass;
}

/**
 * The canonical work queue of a campaign: every leaf the figures'
 * rows list, deduplicated by content address, in a fixed enumeration
 * order. The same options always yield the same sequence, so
 * `--shard=i/N` processes partition it consistently.
 */
struct RunAllQueue
{
    /** Unique leaves, in canonical (figure enumeration) order. */
    std::vector<Leaf> leaves;
    /** Leaves requested before deduplication. */
    std::uint64_t requested = 0;
};

RunAllQueue
buildRunAllQueue(const std::vector<std::string> &figures,
                 const FigureOptions &opt)
{
    RunAllQueue queue;
    std::set<std::string> seen;
    for (const std::string &id : figures) {
        for (Leaf &leaf : figureRow(id).leaves(opt)) {
            ++queue.requested;
            if (seen.insert(leafAddress(leaf)).second)
                queue.leaves.push_back(std::move(leaf));
        }
    }
    return queue;
}

} // namespace

int
runAllMain(const std::vector<std::string> &figures, int argc,
           char **argv)
{
    const std::string tool =
        std::filesystem::path(argc > 0 ? argv[0] : "run_all")
            .filename()
            .string();

    std::string metrics_dir;
    std::string stats_out;
    std::string cache_dir;
    std::string trace_out;
    std::string trace_in;
    bool no_cache = false;
    unsigned shard_index = 0;
    unsigned shard_count = 0; // 0 = not sharded
    FigureOptions opt;
    std::vector<sim::Flag> rows = {
        {"jobs", "MIDDLESIM_JOBS", "N",
         "worker threads (default: hardware threads)",
         [](const std::string &what, const std::string &text) {
             sim::ThreadPool::setGlobalJobs(static_cast<unsigned>(
                 sim::parseUnsigned(what, text, 1,
                                    sim::ThreadPool::kMaxJobs)));
         }},
        {"cache-dir", "MIDDLESIM_CACHE", "DIR",
         "persistent run cache directory", sim::store(cache_dir)},
        {"no-cache", nullptr, nullptr, "skip the persistent run cache",
         sim::storeTrue(no_cache)},
        {"check", "MIDDLESIM_CHECK", nullptr,
         "arm every invariant checker (implies --no-cache)",
         [](const std::string &, const std::string &) {
             check::setCheckingEnabled(true);
         }},
        {"metrics-dir", nullptr, "DIR",
         "write each figure's metrics to DIR/<id>.json",
         sim::store(metrics_dir)},
        {"stats-out", nullptr, "PATH",
         "write dedupe and cache statistics as JSON",
         sim::store(stats_out)},
        {"trace-out", nullptr, "DIR",
         "record execution-driven runs' reference streams",
         sim::store(trace_out)},
        {"trace-in", nullptr, "DIR",
         "replay the Figure 12/13 sweeps from recordings",
         sim::store(trace_in)},
        {nullptr, "MIDDLESIM_TRACE", "DIR",
         "--trace-out and --trace-in at once (flags win)",
         [&](const std::string &, const std::string &text) {
             if (trace_out.empty() && trace_in.empty())
                 trace_out = trace_in = text;
         }},
        {"shard", nullptr, "I/N",
         "only fill --cache-dir with every N-th point from I on",
         [&](const std::string &what, const std::string &text) {
             const std::size_t slash = text.find('/');
             if (slash == std::string::npos)
                 fatal(what, ": '", text, "' is not i/N");
             shard_count = static_cast<unsigned>(sim::parseUnsigned(
                 what, text.substr(slash + 1), 1,
                 std::numeric_limits<unsigned>::max()));
             shard_index = static_cast<unsigned>(sim::parseUnsigned(
                 what, text.substr(0, slash), 0, shard_count - 1));
         }},
    };
    for (sim::Flag &row : opt.flags())
        rows.push_back(std::move(row));
    sim::parseFlags(tool, rows, argc, argv);
    opt.validate(figures);

    // A cached result was produced without the checkers watching;
    // checking is only meaningful for runs that actually execute.
    const bool checking = check::checkingEnabled();
    if (!no_cache && !checking && !cache_dir.empty())
        RunCache::global().setDiskDir(cache_dir);
    configureTracing(trace_out, trace_in);

    // A shard only fills the shared disk cache; anything that needs
    // the results in this process (or skips the cache) is refused.
    if (shard_count != 0) {
        if (cache_dir.empty())
            fatal("--shard: needs --cache-dir=DIR, shared by all shards "
                  "and the rendering run");
        const std::pair<bool, const char *> clashes[] = {
            {no_cache, "--no-cache"},
            {checking, "--check"},
            {!traceOutDir().empty() || !traceInDir().empty(),
             "--trace-out/--trace-in"},
            {!metrics_dir.empty(), "--metrics-dir"},
        };
        for (const auto &[set, flag] : clashes) {
            if (set)
                fatal("--shard: does not combine with ", flag,
                      " (a shard only fills --cache-dir)");
        }
    }

    // Global work queue: every leaf every figure needs, deduplicated
    // by content address.
    RunAllQueue queue = buildRunAllQueue(figures, opt);
    std::vector<Leaf> &leaves = queue.leaves;
    const std::uint64_t unique = leaves.size();
    std::fprintf(stderr,
                 "%s: %llu leaf points requested by %zu figure%s, "
                 "%zu unique after dedupe (jobs=%u)\n",
                 tool.c_str(),
                 static_cast<unsigned long long>(queue.requested),
                 figures.size(), figures.size() == 1 ? "" : "s",
                 leaves.size(), sim::ThreadPool::global().jobs());

    // A shard keeps every N-th unique leaf, from its index on.
    if (shard_count != 0) {
        std::vector<Leaf> mine;
        for (std::size_t i = shard_index; i < leaves.size();
             i += shard_count)
            mine.push_back(std::move(leaves[i]));
        std::fprintf(stderr, "%s: shard %u/%u runs %zu of them\n",
                     tool.c_str(), shard_index, shard_count,
                     mine.size());
        leaves = std::move(mine);
    }

    // Prefetch: one flat fan-out over the unique leaves into the
    // RunCache; the renderers then fetch them as memo (or disk) hits.
    const auto t_start = std::chrono::steady_clock::now();
    fetchLeaves(leaves);
    const double prefetch_seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t_start)
            .count();
    std::fprintf(stderr, "%s: prefetch done in %.2f s\n", tool.c_str(),
                 prefetch_seconds);

    // A shard stops here: a later run over the same --cache-dir
    // renders.
    const bool all_pass =
        shard_count != 0 || renderFigures(figures, opt, metrics_dir);

    if (!stats_out.empty()) {
        std::ofstream os(stats_out);
        if (!os)
            fatal("run_all: cannot open '", stats_out,
                  "' for writing");
        writeStatsJson(os, queue.requested, unique, prefetch_seconds);
    }
    return all_pass ? 0 : 1;
}

} // namespace middlesim::core
