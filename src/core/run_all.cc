#include "core/run_all.hh"

#include <chrono>
#include <cstdio>
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

constexpr FigureJob kFigures[] = {
    {"fig04", runFig04}, {"fig05", runFig05}, {"fig06", runFig06},
    {"fig07", runFig07}, {"fig08", runFig08}, {"fig09", runFig09},
    {"fig10", runFig10}, {"fig11", runFig11}, {"fig12", runFig12},
    {"fig13", runFig13}, {"fig14", runFig14}, {"fig15", runFig15},
    {"fig16", runFig16},
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
 * collapse to one unit of work.
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
 * Render every figure (assembled from cache hits after the prefetch),
 * emitting exactly what the individual drivers would print.
 * @return true when every shape check passes.
 */
bool
renderFigures(const FigureOptions &opt, const std::string &metrics_dir)
{
    bool all_pass = true;
    for (const FigureJob &job : kFigures) {
        const FigureResult fig = job.harness(opt);
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

} // namespace

RunAllQueue
buildRunAllQueue(const FigureOptions &opt)
{
    RunAllQueue queue;
    std::set<std::string> seen;
    for (const FigureJob &job : kFigures) {
        for (RunAllItem &item : figureWork(job.id, opt)) {
            ++queue.requested;
            if (seen.insert(item.id).second)
                queue.items.push_back(std::move(item));
        }
    }
    return queue;
}

int
runAllMain(int argc, char **argv)
{
    std::string metrics_dir;
    std::string stats_out;
    std::string cache_dir;
    std::string trace_out;
    std::string trace_in;
    std::string protocol_flag;
    std::string topology_flag;
    unsigned numa_nodes = 0;
    long dir_occupancy = -1;
    bool no_cache = false;
    unsigned shard_index = 0;
    unsigned shard_count = 0; // 0 = not sharded
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--jobs=", 0) == 0) {
            sim::ThreadPool::setGlobalJobs(sim::parseUnsigned(
                "--jobs", arg.substr(7), 1, sim::ThreadPool::kMaxJobs));
        } else if (arg.rfind("--metrics-dir=", 0) == 0) {
            metrics_dir = arg.substr(14);
            if (metrics_dir.empty())
                fatal("run_all: bad flag '", arg,
                      "' (want --metrics-dir=DIR)");
        } else if (arg.rfind("--stats-out=", 0) == 0) {
            stats_out = arg.substr(12);
            if (stats_out.empty())
                fatal("run_all: bad flag '", arg,
                      "' (want --stats-out=PATH)");
        } else if (arg.rfind("--cache-dir=", 0) == 0) {
            cache_dir = arg.substr(12);
            if (cache_dir.empty())
                fatal("run_all: bad flag '", arg,
                      "' (want --cache-dir=PATH)");
        } else if (arg.rfind("--trace-out=", 0) == 0) {
            trace_out = arg.substr(12);
            if (trace_out.empty())
                fatal("run_all: bad flag '", arg,
                      "' (want --trace-out=DIR)");
        } else if (arg.rfind("--trace-in=", 0) == 0) {
            trace_in = arg.substr(11);
            if (trace_in.empty())
                fatal("run_all: bad flag '", arg,
                      "' (want --trace-in=DIR)");
        } else if (arg.rfind("--protocol=", 0) == 0) {
            protocol_flag = arg.substr(11);
            sim::CoherenceProtocol p;
            if (!sim::parseProtocol(protocol_flag, p))
                fatal("run_all: bad flag '", arg,
                      "' (want --protocol=snoop|directory)");
        } else if (arg.rfind("--numa-nodes=", 0) == 0) {
            numa_nodes = sim::parseUnsigned("--numa-nodes", arg.substr(13),
                                            1, FigureOptions::kMaxNumaNodes);
        } else if (arg.rfind("--topology=", 0) == 0) {
            topology_flag = arg.substr(11);
            sim::Topology t;
            if (!sim::parseTopology(topology_flag, t))
                fatal("run_all: bad flag '", arg,
                      "' (want --topology=ring|mesh)");
        } else if (arg.rfind("--dir-occupancy=", 0) == 0) {
            dir_occupancy = sim::parseUnsigned(
                "--dir-occupancy", arg.substr(16), 0,
                FigureOptions::kMaxDirOccupancy);
        } else if (arg.rfind("--shard=", 0) == 0) {
            const std::string v = arg.substr(8);
            const std::size_t slash = v.find('/');
            if (slash == std::string::npos)
                fatal("--shard: '", v, "' is not i/N");
            shard_count = sim::parseUnsigned(
                "--shard", v.substr(slash + 1), 1,
                std::numeric_limits<unsigned>::max());
            shard_index = sim::parseUnsigned("--shard", v.substr(0, slash),
                                             0, shard_count - 1);
        } else if (arg == "--no-cache") {
            no_cache = true;
        } else if (arg == "--check") {
            check::setCheckingEnabled(true);
        } else {
            fatal("run_all: unknown flag '", arg,
                  "' (supported: --jobs=N, --metrics-dir=DIR, "
                  "--stats-out=PATH, --cache-dir=PATH, --no-cache, "
                  "--check, --trace-out=DIR, --trace-in=DIR, "
                  "--protocol=snoop|directory, --numa-nodes=N, "
                  "--topology=ring|mesh, --dir-occupancy=N, "
                  "--shard=i/N)");
        }
    }

    FigureOptions opt = FigureOptions::fromEnv();
    if (!protocol_flag.empty())
        sim::parseProtocol(protocol_flag, opt.protocol);
    if (numa_nodes != 0)
        opt.numaNodes = numa_nodes;
    if (!topology_flag.empty())
        sim::parseTopology(topology_flag, opt.topology);
    if (dir_occupancy >= 0)
        opt.dirOccupancy = static_cast<unsigned>(dir_occupancy);
    opt.validate();

    // A cached result was produced without the checkers watching;
    // checking is only meaningful for runs that actually execute.
    const bool checking = check::checkingEnabled();
    configureRunCache(cache_dir, no_cache || checking);
    configureTracingFromFlags(trace_out, trace_in);

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
    RunAllQueue queue = buildRunAllQueue(opt);
    std::vector<RunAllItem> &items = queue.items;
    const std::uint64_t unique = items.size();
    std::fprintf(stderr,
                 "run_all: %llu leaf points requested by 13 figures, "
                 "%zu unique after dedupe (jobs=%u)\n",
                 static_cast<unsigned long long>(queue.requested),
                 items.size(), sim::ThreadPool::global().jobs());

    // A shard keeps every N-th unique item, from its index on.
    if (shard_count != 0) {
        std::vector<RunAllItem> mine;
        for (std::size_t i = shard_index; i < items.size();
             i += shard_count)
            mine.push_back(std::move(items[i]));
        std::fprintf(stderr, "run_all: shard %u/%u runs %zu of them\n",
                     shard_index, shard_count, mine.size());
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
    std::fprintf(stderr, "run_all: prefetch done in %.2f s\n",
                 prefetch_seconds);

    // A shard stops here: a later run over the same --cache-dir
    // renders.
    const bool all_pass =
        shard_count != 0 || renderFigures(opt, metrics_dir);

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
