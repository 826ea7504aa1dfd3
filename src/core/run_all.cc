#include "core/run_all.hh"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/checker.hh"
#include "core/cache.hh"
#include "core/figures_internal.hh"
#include "core/manycore.hh"
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

struct FigureJob
{
    const char *id;
    FigureResult (*harness)(const FigureOptions &);
};

/** Every figure a campaign can render; the first 13 are the paper's. */
constexpr FigureJob kFigures[] = {
    {"fig04", runFig04}, {"fig05", runFig05}, {"fig06", runFig06},
    {"fig07", runFig07}, {"fig08", runFig08}, {"fig09", runFig09},
    {"fig10", runFig10}, {"fig11", runFig11}, {"fig12", runFig12},
    {"fig13", runFig13}, {"fig14", runFig14}, {"fig15", runFig15},
    {"fig16", runFig16}, {"fig_manycore", runManycore},
};
constexpr std::size_t kPaperFigureCount = 13;

const FigureJob &
figureJob(const std::string &id)
{
    for (const FigureJob &job : kFigures) {
        if (id == job.id)
            return job;
    }
    fatal("run_all: unknown figure '", id, "'");
}

/** One leaf simulation of the campaign. */
struct RunAllItem
{
    /** Content address: equal ids compute the same result. */
    std::string id;
    /** Compute the result into the RunCache (memory and disk). */
    std::function<void()> run;
};

void
addGridItems(std::vector<RunAllItem> &items,
             const std::vector<ExperimentSpec> &specs)
{
    for (const ExperimentSpec &spec : specs) {
        items.push_back({"run:" + encodeSpecKey(spec),
                         [spec] { cachedRunExperiment(spec); }});
    }
}

/**
 * The leaf simulations figure `fig` consumes. Ids are content
 * addresses, so identical points requested by different figures
 * collapse to one unit of work. fig_manycore runs its own grid and
 * contributes none.
 */
std::vector<RunAllItem>
figureWork(const std::string &fig, const FigureOptions &opt)
{
    std::vector<RunAllItem> items;
    if (fig >= "fig04" && fig <= "fig09") {
        addGridItems(items, scalingGridSpecs(opt));
    } else if (fig == "fig10") {
        items.push_back({"fig10:", [opt] { cachedFig10Data(opt); }});
    } else if (fig == "fig11") {
        for (unsigned s : fig11JbbScales()) {
            items.push_back({"live:jbb:" + std::to_string(s), [s, opt] {
                cachedLivePoint(WorkloadKind::SpecJbb, s, opt);
            }});
        }
        for (unsigned s : fig11EcperfScales()) {
            items.push_back({"live:ec:" + std::to_string(s), [s, opt] {
                cachedLivePoint(WorkloadKind::Ecperf, s, opt);
            }});
        }
    } else if (fig == "fig12" || fig == "fig13") {
        items.push_back({"sweep:ec:8", [opt] {
            cachedSweepOutcome(WorkloadKind::Ecperf, 8, opt);
        }});
        for (unsigned s : {1u, 10u, 25u}) {
            items.push_back({"sweep:jbb:" + std::to_string(s), [s, opt] {
                cachedSweepOutcome(WorkloadKind::SpecJbb, s, opt);
            }});
        }
    } else if (fig == "fig14" || fig == "fig15") {
        items.push_back({"comm:jbb:15:15", [opt] {
            cachedCommFootprint(WorkloadKind::SpecJbb, 15, 15, opt);
        }});
        items.push_back({"comm:ec:8:8", [opt] {
            cachedCommFootprint(WorkloadKind::Ecperf, 8, 8, opt);
        }});
    } else if (fig == "fig16") {
        addGridItems(items, fig16GridSpecs(opt));
    }
    return items;
}

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
        const FigureResult fig = figureJob(id).harness(opt);
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
 * The canonical work queue of a campaign: every leaf simulation the
 * figures need, deduplicated by content address, in a fixed
 * enumeration order. The same options always yield the same
 * sequence, so `--shard=i/N` processes partition it consistently.
 */
struct RunAllQueue
{
    /** Unique items, in canonical (figure enumeration) order. */
    std::vector<RunAllItem> items;
    /** Leaf points requested before deduplication. */
    std::uint64_t requested = 0;
};

RunAllQueue
buildRunAllQueue(const std::vector<std::string> &figures,
                 const FigureOptions &opt)
{
    RunAllQueue queue;
    std::set<std::string> seen;
    for (const std::string &id : figures) {
        for (RunAllItem &item : figureWork(id, opt)) {
            ++queue.requested;
            if (seen.insert(item.id).second)
                queue.items.push_back(std::move(item));
        }
    }
    return queue;
}

} // namespace

const std::vector<std::string> &
paperFigures()
{
    static const std::vector<std::string> ids = [] {
        std::vector<std::string> v;
        for (std::size_t i = 0; i < kPaperFigureCount; ++i)
            v.push_back(kFigures[i].id);
        return v;
    }();
    return ids;
}

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
    opt.validate();

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
    std::vector<RunAllItem> &items = queue.items;
    const std::uint64_t unique = items.size();
    std::fprintf(stderr,
                 "%s: %llu leaf points requested by %zu figure%s, "
                 "%zu unique after dedupe (jobs=%u)\n",
                 tool.c_str(),
                 static_cast<unsigned long long>(queue.requested),
                 figures.size(), figures.size() == 1 ? "" : "s",
                 items.size(), sim::ThreadPool::global().jobs());

    // A shard keeps every N-th unique item, from its index on.
    if (shard_count != 0) {
        std::vector<RunAllItem> mine;
        for (std::size_t i = shard_index; i < items.size();
             i += shard_count)
            mine.push_back(std::move(items[i]));
        std::fprintf(stderr, "%s: shard %u/%u runs %zu of them\n",
                     tool.c_str(), shard_index, shard_count,
                     mine.size());
        items = std::move(mine);
    }

    // Prefetch: one flat fan-out over the unique points. Leaf tasks
    // never submit nested pool work, so this cannot deadlock.
    const auto t_start = std::chrono::steady_clock::now();
    sim::ThreadPool::global().parallelFor(
        items.size(), [&](std::size_t i) { items[i].run(); });
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
