#include "core/leaves.hh"

#include <atomic>
#include <map>
#include <numeric>
#include <optional>
#include <type_traits>

#include "core/cache.hh"
#include "core/manycore.hh"
#include "core/paper.hh"
#include "core/trace_run.hh"
#include "sim/log.hh"
#include "sim/threadpool.hh"
#include "trace/reader.hh"

namespace middlesim::core
{

namespace
{

// ---------------------------------------------------------------------
// Spec builders
// ---------------------------------------------------------------------

/** A point of the paper's machine with the options applied. */
ExperimentSpec
paperSpec(WorkloadKind kind, unsigned cpus, const FigureOptions &opt)
{
    ExperimentSpec spec;
    spec.workload = kind;
    spec.appCpus = cpus;
    spec.seed = opt.seed;
    spec.protocol = opt.protocol;
    spec.numaNodes = opt.numaNodes;
    spec.topology = opt.topology;
    spec.dirOccupancy = opt.dirOccupancy;
    spec.warmup = static_cast<sim::Tick>(
        static_cast<double>(spec.warmup) * opt.timeScale);
    spec.measure = static_cast<sim::Tick>(
        static_cast<double>(spec.measure) * opt.timeScale);
    return spec;
}

/** The Figure 10 timeline configuration. */
ExperimentSpec
fig10Spec(const FigureOptions &opt)
{
    ExperimentSpec spec = paperSpec(WorkloadKind::SpecJbb, 8, opt);
    spec.measure = static_cast<sim::Tick>(340'000'000 * opt.timeScale);
    // A larger young generation for the timeline: with a compressed
    // nursery a noticeable fraction of from-space is still cached,
    // blurring the copyback collapse the paper observes.
    spec.sys.jvm.heap.newGenBytes = 48ULL << 20;
    return spec;
}

/** The Figure 11 configuration for one scale point. */
ExperimentSpec
liveSpec(WorkloadKind kind, unsigned scale, const FigureOptions &opt)
{
    ExperimentSpec spec = paperSpec(kind, 8, opt);
    spec.scale = scale;
    return spec;
}

/** The Figure 12/13 uniprocessor sweep configuration. */
ExperimentSpec
sweepSpec(WorkloadKind kind, unsigned scale, const FigureOptions &opt)
{
    ExperimentSpec spec = paperSpec(kind, 1, opt);
    spec.totalCpus = 1; // uniprocessor full-system configuration
    spec.numaNodes = 1; // a one-CPU machine is a single node
    spec.scale = scale;
    // A single CPU progresses slowly; use a longer interval so large
    // caches see enough references.
    spec.measure = static_cast<sim::Tick>(
        static_cast<double>(spec.measure) * 3.0);
    return spec;
}

/** The Figure 14/15 communication-tracking configuration. */
ExperimentSpec
commSpec(WorkloadKind kind, unsigned cpus, unsigned scale,
         const FigureOptions &opt)
{
    ExperimentSpec spec = paperSpec(kind, cpus, opt);
    spec.scale = scale;
    spec.trackCommunication = true;
    spec.measure = static_cast<sim::Tick>(
        static_cast<double>(spec.measure) * 1.5);
    return spec;
}

/** A Figure 16 shared-L2 configuration. */
ExperimentSpec
sharedCacheSpec(WorkloadKind kind, unsigned scale, unsigned cpus_per_l2,
                const FigureOptions &opt)
{
    ExperimentSpec spec = paperSpec(kind, 8, opt);
    spec.totalCpus = 8;
    spec.cpusPerL2 = cpus_per_l2;
    spec.scale = scale;
    // The sharing sweep varies the L2 group count (8 CPUs at degrees
    // 1..8), so a fixed --numa-nodes cannot divide every point; keep
    // the largest topology consistent with each geometry.
    spec.numaNodes = std::gcd(spec.numaNodes,
                              spec.totalCpus / spec.cpusPerL2);
    return spec;
}

// ---------------------------------------------------------------------
// Leaf lists
// ---------------------------------------------------------------------

/** Figures 4-9: per paper CPU count, opt.runs runs of ECperf, then of
 *  SPECjbb (seeds from repeatedSpec, as runRepeated() derives them). */
std::vector<Leaf>
scalingLeaves(const FigureOptions &opt)
{
    std::vector<Leaf> leaves;
    for (double cpus_d : paper::cpuSweep()) {
        const auto cpus = static_cast<unsigned>(cpus_d);
        for (WorkloadKind kind :
             {WorkloadKind::Ecperf, WorkloadKind::SpecJbb}) {
            const ExperimentSpec spec = paperSpec(kind, cpus, opt);
            for (unsigned r = 0; r < opt.runs; ++r)
                leaves.push_back({LeafKind::Run, repeatedSpec(spec, r)});
        }
    }
    return leaves;
}

std::vector<Leaf>
fig10Leaves(const FigureOptions &opt)
{
    return {{LeafKind::Fig10, fig10Spec(opt)}};
}

/** Figure 11: every SPECjbb warehouse count, then every ECperf
 *  injection rate (index-aligned pairs). */
std::vector<Leaf>
fig11Leaves(const FigureOptions &opt)
{
    std::vector<Leaf> leaves;
    for (unsigned s : {1u, 5u, 10u, 15u, 20u, 25u, 30u, 35u, 40u})
        leaves.push_back(
            {LeafKind::Live, liveSpec(WorkloadKind::SpecJbb, s, opt)});
    for (unsigned s : {1u, 2u, 4u, 6u, 10u, 15u, 20u, 30u, 40u})
        leaves.push_back(
            {LeafKind::Live, liveSpec(WorkloadKind::Ecperf, s, opt)});
    return leaves;
}

/** Figures 12/13: ECperf at OIR 8, then SPECjbb at 1, 10 and 25
 *  warehouses. */
std::vector<Leaf>
sweepLeaves(const FigureOptions &opt)
{
    std::vector<Leaf> leaves = {
        {LeafKind::Sweep, sweepSpec(WorkloadKind::Ecperf, 8, opt)}};
    for (unsigned s : {1u, 10u, 25u})
        leaves.push_back(
            {LeafKind::Sweep, sweepSpec(WorkloadKind::SpecJbb, s, opt)});
    return leaves;
}

/** Figures 14/15: SPECjbb on 15 CPUs, then ECperf. The paper binds
 *  the ECperf application server to 8 of the 16 processors and
 *  filters to those. */
std::vector<Leaf>
commLeaves(const FigureOptions &opt)
{
    return {{LeafKind::Comm, commSpec(WorkloadKind::SpecJbb, 15, 15, opt)},
            {LeafKind::Comm, commSpec(WorkloadKind::Ecperf, 8, 8, opt)}};
}

/** Figure 16: per sharing degree, ECperf then SPECjbb-25. */
std::vector<Leaf>
fig16Leaves(const FigureOptions &opt)
{
    std::vector<Leaf> leaves;
    for (unsigned share : {1u, 2u, 4u, 8u}) {
        leaves.push_back(
            {LeafKind::Run,
             sharedCacheSpec(WorkloadKind::Ecperf, 8, share, opt)});
        leaves.push_back(
            {LeafKind::Run,
             sharedCacheSpec(WorkloadKind::SpecJbb, 25, share, opt)});
    }
    return leaves;
}

/** The many-core grid, then its contended companion. */
std::vector<Leaf>
manycoreLeaves(const FigureOptions &opt)
{
    const FigureOptions paper;
    const std::pair<bool, const char *> ignored[] = {
        {opt.protocol != paper.protocol, "--protocol (MIDDLESIM_PROTOCOL)"},
        {opt.numaNodes != paper.numaNodes,
         "--numa-nodes (MIDDLESIM_NUMA_NODES)"},
        {opt.topology != paper.topology, "--topology (MIDDLESIM_TOPOLOGY)"},
        {opt.dirOccupancy != paper.dirOccupancy,
         "--dir-occupancy (MIDDLESIM_DIR_OCCUPANCY)"},
    };
    for (const auto &[set, option] : ignored) {
        if (set)
            fatal("fig_manycore: ", option,
                  " does not apply: every point sets its own machine");
    }
    std::vector<Leaf> leaves;
    for (const auto &specs :
         {manycoreGridSpecs(opt), manycoreContendedGridSpecs(opt)}) {
        for (const ExperimentSpec &spec : specs)
            leaves.push_back({LeafKind::Run, spec});
    }
    return leaves;
}

// ---------------------------------------------------------------------
// Simulation of each leaf kind
// ---------------------------------------------------------------------

Fig10Data
simulateFig10(const ExperimentSpec &spec)
{
    BuiltWorkload workload;
    auto system = buildSystem(spec, workload);
    system->run(spec.warmup);
    system->beginMeasurement();

    // Timeline bins are indexed by absolute time.
    const sim::Tick t0 = system->now();
    system->memory().enableTimeline(
        fig10BinWidth,
        static_cast<unsigned>((t0 + spec.measure) / fig10BinWidth) + 2);
    system->run(spec.measure);

    Fig10Data d;
    d.t0 = t0;
    d.bins = system->memory().timeline()->bins();
    for (const auto &rec : system->vm().stats().log)
        d.gcWindows.emplace_back(rec.start, rec.start + rec.duration);
    d.point = pointName(spec);
    d.snap = collectMetrics(*system, spec, workload);
    return d;
}

/** Run one scale point until at least three collections happen. */
LivePoint
simulateLive(const ExperimentSpec &spec)
{
    BuiltWorkload workload;
    auto system = buildSystem(spec, workload);
    system->run(spec.warmup);
    system->beginMeasurement();
    const unsigned min_gcs = 3;
    for (unsigned chunk = 0; chunk < 12; ++chunk) {
        system->run(spec.measure);
        if (system->vm().stats().log.size() >= min_gcs)
            break;
    }
    LivePoint out;
    out.point = pointName(spec);
    out.snap = collectMetrics(*system, spec, workload);
    const auto &st = system->vm().stats();
    if (st.liveAfterMB.count() == 0) {
        // No collection happened (tiny scale): report the workload's
        // live data directly.
        const std::uint64_t live = workload.jbb
            ? workload.jbb->liveBytes()
            : workload.ecperf->liveBytes();
        out.mb = static_cast<double>(live) / (1024.0 * 1024.0);
    } else {
        out.mb = st.liveAfterMB.mean();
    }
    return out;
}

/** Uniprocessor full-system run feeding the multi-size cache sweep. */
SweepOutcome
simulateSweep(const ExperimentSpec &spec)
{
    mem::SweepSimulator sweep{mem::SweepSimulator::paperSweep()};

    BuiltWorkload workload;
    auto system = buildSystem(spec, workload);
    auto writer = beginTraceRecording(*system, spec);
    // Warm both the hierarchy and the sweep caches, then count only
    // the measured interval: beginMeasurement()'s StatsReset zeroes
    // the sweep's counters, as it does on replay.
    system->memory().attachTap(&sweep);
    system->run(spec.warmup);
    system->beginMeasurement();
    system->run(spec.measure);
    sweep.countInstructions(system->appCpi().instructions);
    system->memory().detachTap(&sweep);
    finishTraceRecording(std::move(writer), *system, spec);

    SweepOutcome out;
    out.icache = sweep.icacheResults();
    out.dcache = sweep.dcacheResults();
    out.instructions = sweep.instructions();
    out.point = pointName(spec);
    out.snap = collectMetrics(*system, spec, workload);
    return out;
}

CommPoint
simulateComm(const ExperimentSpec &spec)
{
    BuiltWorkload workload;
    auto system = buildSystem(spec, workload);
    const RunResult res = measure(*system, spec, workload);
    CommPoint point;
    point.curve = system->memory().c2cPerLine().concentration();
    point.touchedLines = system->memory().touchedLines();
    point.point = pointName(spec);
    point.snap = *res.metrics;
    return point;
}

LeafResult
simulate(const Leaf &leaf)
{
    switch (leaf.kind) {
      case LeafKind::Run:
        return runExperiment(leaf.spec);
      case LeafKind::Fig10:
        return simulateFig10(leaf.spec);
      case LeafKind::Live:
        return simulateLive(leaf.spec);
      case LeafKind::Sweep:
        return simulateSweep(leaf.spec);
      case LeafKind::Comm:
        return simulateComm(leaf.spec);
    }
    fatal("leaf: unknown kind");
}

/**
 * A sweep leaf from its --trace-in recording. Nothing when no
 * recording of this spec exists or the file does not validate (the
 * caller falls back to execution). The curves are bit-identical to
 * an execution's; the snapshot holds only the replay counts.
 */
std::optional<LeafResult>
replaySweep(const ExperimentSpec &spec)
{
    const std::string path = traceFilePath(traceInDir(), spec);
    std::string data;
    if (!trace::readTraceFile(path, data))
        return std::nullopt;
    SweepReplayOutcome replay = replayTraceSweep(std::move(data));
    if (!replay.valid) {
        warn("trace: '", path, "' invalid (", replay.error,
             "); falling back to execution");
        return std::nullopt;
    }
    if (replay.header.specKey != traceSpecKey(spec)) {
        warn("trace: '", path,
             "' records a different spec; falling back to execution");
        return std::nullopt;
    }
    SweepOutcome out;
    out.icache = std::move(replay.icache);
    out.dcache = std::move(replay.dcache);
    out.instructions = replay.instructions;
    out.point = pointName(spec);
    out.snap.counters["trace.replay.refs"] = replay.counts.refs;
    out.snap.counters["trace.replay.annotations"] =
        replay.counts.annotations;
    return out;
}

// ---------------------------------------------------------------------
// Payload codecs (bit-exact; see core/cache.hh)
// ---------------------------------------------------------------------

void
encodeSweepResults(sim::ByteWriter &w,
                   const std::vector<mem::SweepResult> &results)
{
    w.u64(results.size());
    for (const auto &res : results) {
        w.u64(res.params.sizeBytes);
        w.u32(res.params.assoc);
        w.u32(res.params.blockBytes);
        w.u64(res.accesses);
        w.u64(res.misses);
    }
}

std::vector<mem::SweepResult>
decodeSweepResults(sim::ByteReader &r)
{
    std::vector<mem::SweepResult> results;
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; r.ok() && i < n; ++i) {
        mem::SweepResult res;
        res.params.sizeBytes = r.u64();
        res.params.assoc = r.u32();
        res.params.blockBytes = r.u32();
        res.accesses = r.u64();
        res.misses = r.u64();
        results.push_back(res);
    }
    return results;
}

std::string
encodePayload(const RunResult &r)
{
    return encodeRunResult(r);
}

std::string
encodePayload(const Fig10Data &d)
{
    sim::ByteWriter w;
    w.u64(d.t0);
    w.vecU64(d.bins);
    w.u64(d.gcWindows.size());
    for (const auto &[start, end] : d.gcWindows) {
        w.u64(start);
        w.u64(end);
    }
    w.str(d.point);
    encodeSnapshot(w, d.snap);
    return w.take();
}

std::string
encodePayload(const LivePoint &p)
{
    sim::ByteWriter w;
    w.f64(p.mb);
    w.str(p.point);
    encodeSnapshot(w, p.snap);
    return w.take();
}

std::string
encodePayload(const SweepOutcome &o)
{
    sim::ByteWriter w;
    encodeSweepResults(w, o.icache);
    encodeSweepResults(w, o.dcache);
    w.u64(o.instructions);
    w.str(o.point);
    encodeSnapshot(w, o.snap);
    return w.take();
}

std::string
encodePayload(const CommPoint &p)
{
    sim::ByteWriter w;
    w.vecU64(p.curve.counts());
    w.u64(p.touchedLines);
    w.str(p.point);
    encodeSnapshot(w, p.snap);
    return w.take();
}

bool
decodePayload(const std::string &bytes, RunResult &out)
{
    return decodeRunResult(bytes, out);
}

bool
decodePayload(const std::string &bytes, Fig10Data &d)
{
    sim::ByteReader r(bytes);
    d.t0 = r.u64();
    d.bins = r.vecU64();
    const std::uint64_t windows = r.u64();
    for (std::uint64_t i = 0; r.ok() && i < windows; ++i) {
        const sim::Tick start = r.u64();
        const sim::Tick end = r.u64();
        d.gcWindows.emplace_back(start, end);
    }
    d.point = r.str();
    d.snap = decodeSnapshot(r);
    return r.atEnd();
}

bool
decodePayload(const std::string &bytes, LivePoint &p)
{
    sim::ByteReader r(bytes);
    p.mb = r.f64();
    p.point = r.str();
    p.snap = decodeSnapshot(r);
    return r.atEnd();
}

bool
decodePayload(const std::string &bytes, SweepOutcome &o)
{
    sim::ByteReader r(bytes);
    o.icache = decodeSweepResults(r);
    o.dcache = decodeSweepResults(r);
    o.instructions = r.u64();
    o.point = r.str();
    o.snap = decodeSnapshot(r);
    return r.atEnd();
}

bool
decodePayload(const std::string &bytes, CommPoint &p)
{
    sim::ByteReader r(bytes);
    p.curve = stats::ConcentrationCurve(r.vecU64());
    p.touchedLines = r.u64();
    p.point = r.str();
    p.snap = decodeSnapshot(r);
    return r.atEnd();
}

template <typename Payload>
std::optional<LeafResult>
decodeAs(const std::string &bytes)
{
    Payload payload;
    if (!decodePayload(bytes, payload))
        return std::nullopt;
    return payload;
}

std::optional<LeafResult>
decodeLeaf(LeafKind kind, const std::string &bytes)
{
    switch (kind) {
      case LeafKind::Run:
        return decodeAs<RunResult>(bytes);
      case LeafKind::Fig10:
        return decodeAs<Fig10Data>(bytes);
      case LeafKind::Live:
        return decodeAs<LivePoint>(bytes);
      case LeafKind::Sweep:
        return decodeAs<SweepOutcome>(bytes);
      case LeafKind::Comm:
        return decodeAs<CommPoint>(bytes);
    }
    return std::nullopt;
}

/** RunCache kind of a LeafKind. */
const char *
kindName(LeafKind kind)
{
    static const char *const names[] = {"run", "fig10", "live", "sweep",
                                        "comm"};
    return names[static_cast<std::size_t>(kind)];
}

/**
 * `kind`'s payload of `leaf` from the RunCache, else compute() and
 * store it. Nothing when the cache misses and compute() yields
 * nothing.
 */
template <typename Compute>
std::optional<LeafResult>
fetchOr(const char *kind, const Leaf &leaf, Compute compute)
{
    const std::string key = encodeSpecKey(leaf.spec);
    RunCache &cache = RunCache::global();
    std::string payload;
    if (cache.fetch(kind, key, payload)) {
        if (std::optional<LeafResult> cached =
                decodeLeaf(leaf.kind, payload))
            return cached;
        warn("cache: undecodable '", kind, "' payload; re-simulating");
    }
    std::optional<LeafResult> fresh = compute();
    if (fresh) {
        cache.store(kind, key,
                    std::visit([](const auto &p) { return encodePayload(p); },
                               *fresh));
    }
    return fresh;
}

std::atomic<std::uint64_t> gridRequested{0};
std::atomic<std::uint64_t> gridUnique{0};

/** Every figure a campaign can render; the first 13 are the paper's. */
constexpr FigureRow kFigureRows[] = {
    {"fig04", scalingLeaves, runFig04},
    {"fig05", scalingLeaves, runFig05},
    {"fig06", scalingLeaves, runFig06},
    {"fig07", scalingLeaves, runFig07},
    {"fig08", scalingLeaves, runFig08},
    {"fig09", scalingLeaves, runFig09},
    {"fig10", fig10Leaves, runFig10},
    {"fig11", fig11Leaves, runFig11},
    {"fig12", sweepLeaves, runFig12},
    {"fig13", sweepLeaves, runFig13},
    {"fig14", commLeaves, runFig14},
    {"fig15", commLeaves, runFig15},
    {"fig16", fig16Leaves, runFig16},
    {"fig_manycore", manycoreLeaves, runManycore},
};
constexpr std::size_t kPaperFigureCount = 13;

} // namespace

std::string
leafAddress(const Leaf &leaf)
{
    return std::string(kindName(leaf.kind)) + ":" +
           encodeSpecKey(leaf.spec);
}

const sim::MetricSnapshot &
leafSnapshot(const LeafResult &result)
{
    return std::visit(
        [](const auto &payload) -> const sim::MetricSnapshot & {
            if constexpr (std::is_same_v<std::decay_t<decltype(payload)>,
                                         RunResult>)
                return *payload.metrics;
            else
                return payload.snap;
        },
        result);
}

LeafResult
fetchLeaf(const Leaf &leaf)
{
    if (leaf.kind == LeafKind::Sweep && !traceInDir().empty()) {
        if (std::optional<LeafResult> replayed =
                fetchOr("sweep-replay", leaf,
                        [&] { return replaySweep(leaf.spec); }))
            return std::move(*replayed);
    }
    return *fetchOr(kindName(leaf.kind), leaf,
                    [&] { return std::optional(simulate(leaf)); });
}

std::vector<LeafResult>
fetchLeaves(const std::vector<Leaf> &leaves)
{
    std::vector<std::size_t> firstIndex;
    std::vector<std::size_t> uniqueOf(leaves.size());
    std::map<std::string, std::size_t> byAddress;
    for (std::size_t i = 0; i < leaves.size(); ++i) {
        auto [it, inserted] =
            byAddress.emplace(leafAddress(leaves[i]), firstIndex.size());
        if (inserted)
            firstIndex.push_back(i);
        uniqueOf[i] = it->second;
    }
    gridRequested += leaves.size();
    gridUnique += firstIndex.size();

    std::vector<LeafResult> unique(firstIndex.size());
    sim::ThreadPool::global().parallelFor(
        firstIndex.size(), [&](std::size_t u) {
            unique[u] = fetchLeaf(leaves[firstIndex[u]]);
        });

    std::vector<LeafResult> results;
    results.reserve(leaves.size());
    for (std::size_t i = 0; i < leaves.size(); ++i)
        results.push_back(unique[uniqueOf[i]]);
    return results;
}

GridDedupeStats
gridDedupeStats()
{
    return {gridRequested.load(), gridUnique.load()};
}

void
resetGridDedupeStats()
{
    gridRequested = 0;
    gridUnique = 0;
}

const FigureRow &
figureRow(const std::string &id)
{
    for (const FigureRow &row : kFigureRows) {
        if (id == row.id)
            return row;
    }
    fatal("unknown figure '", id, "'");
}

const std::vector<std::string> &
paperFigures()
{
    static const std::vector<std::string> ids = [] {
        std::vector<std::string> v;
        for (std::size_t i = 0; i < kPaperFigureCount; ++i)
            v.push_back(kFigureRows[i].id);
        return v;
    }();
    return ids;
}

} // namespace middlesim::core
