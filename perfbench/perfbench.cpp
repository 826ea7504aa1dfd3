/**
 * @file
 * perfbench: the repository benchmark (see README.md beside it).
 *
 * Runs one named workload for a host-time budget and prints a meta
 * line and, last, one JSON result line. An untraced run (--trace 0)
 * reports the end-to-end metrics; a traced run (--trace 1) reports the
 * per-layer metrics. Every span is taken here, around the calls this
 * file makes into the simulator's public functions; inside a
 * simulation the only probes are the observation-only hooks
 * mem::AccessObserver and mem::TraceSink, attached in traced passes
 * only. Every operation's deterministic result is digested and must
 * repeat across iterations, across traced and untraced passes, and
 * match the stored reference for the seed when one exists.
 */

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/cache.hh"
#include "core/experiment.hh"
#include "core/manycore.hh"
#include "core/metrics_io.hh"
#include "core/paper.hh"
#include "core/trace_run.hh"
#include "mem/access_observer.hh"
#include "mem/trace_sink.hh"
#include "sim/serialize.hh"
#include "sim/threadpool.hh"
#include "trace/reader.hh"
#include "trace/replay.hh"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#else
#define PERFBENCH_SANITIZED 0
#endif
#ifdef __OPTIMIZE__
#define PERFBENCH_OPTIMIZED 1
#else
#define PERFBENCH_OPTIMIZED 0
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace
{

using namespace middlesim;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
toSeconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

[[noreturn]] void
refuse(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n";
    std::exit(2);
}

// ---------------------------------------------------------------------
// Metric tables (names and units must match BENCHMARK.json)
// ---------------------------------------------------------------------

struct MetricDef
{
    const char *name;
    const char *unit;
    /** Deterministic (simulated counts): must repeat exactly. */
    bool exact;
};

const MetricDef kEndToEnd[] = {
    {"wall_s", "s", false},
    {"setup_s", "s", false},
    {"sim_mips", "MIPS", false},
    {"mrefs_per_s", "Mref/s", false},
    {"point_s_p50", "s", false},
    {"point_s_tail", "s", false},
    {"peak_rss_mb", "MB", false},
    {"ok_frac", "ratio", true},
    {"paper_err", "ratio", true},
};

const MetricDef kPerLayer[] = {
    {"core.build_s", "s", false},
    {"core.teardown_s", "s", false},
    {"core.build_rss_mb", "MB", false},
    {"core.measure_s", "s", false},
    {"core.points", "count", true},
    {"core.grid_makespan_s", "s", false},
    {"core.grid_point_s_sum", "s", false},
    {"core.grid_long_pole_s", "s", false},
    {"core.grid_parallel_eff", "ratio", false},
    {"core.run_self_s", "s", false},
    {"mem.access_s", "s", false},
    {"mem.accesses", "count", true},
    {"mem.access_ns", "ns", false},
    {"mem.replay_self_s", "s", false},
    {"mem.l1i_hit_ratio", "ratio", true},
    {"mem.l1d_hit_ratio", "ratio", true},
    {"mem.l2_hit_ratio", "ratio", true},
    {"mem.l2_misses", "count", true},
    {"mem.c2c_transfers", "count", true},
    {"mem.bus.queue_delay", "cycles", true},
    {"mem.dir.nacks", "count", true},
    {"mem.dir.retries", "count", true},
    {"mem.dir.occupancy_queue_delay", "cycles", true},
    {"mem.numa.link.queue_delay", "cycles", true},
    {"mem.numa.remote_frac", "ratio", true},
    {"trace.record_s", "s", false},
    {"trace.decode_s", "s", false},
    {"trace.refs", "count", true},
    {"trace.bytes", "bytes", true},
    {"stackdist.sweep_self_s", "s", false},
    {"jvm.gc_host_s", "s", false},
    {"jvm.gc_self_s", "s", false},
    {"jvm.gc.minor", "count", true},
    {"jvm.gc.pause_cycles", "cycles", true},
    {"jvm.tlab.refills", "count", true},
    {"os.idle_frac", "ratio", true},
    {"os.sched.context_switches", "count", true},
    {"os.sched.migrations", "count", true},
    {"cpu.instructions", "count", true},
    {"cpu.cpi", "ratio", true},
    {"trace_overhead", "ratio", false},
};

using Values = std::map<std::string, double>;

// ---------------------------------------------------------------------
// Host memory
// ---------------------------------------------------------------------

double
rssMb()
{
    std::ifstream statm("/proc/self/statm");
    unsigned long long size = 0, resident = 0;
    statm >> size >> resident;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/** Peak RSS since start or since the last resetPeakRss(). */
double
windowPeakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

/** Largest window peak seen before the last resetPeakRss(). */
double processPeakBeforeReset = 0.0;

/** Restart the kernel's peak-RSS mark (VmHWM) at the current RSS. */
void
resetPeakRss()
{
    processPeakBeforeReset =
        std::max(processPeakBeforeReset, windowPeakRssMb());
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Peak RSS of the whole process so far. */
double
peakRssMb()
{
    return std::max(processPeakBeforeReset, windowPeakRssMb());
}

// ---------------------------------------------------------------------
// Digests of deterministic results
// ---------------------------------------------------------------------

void
putStats(sim::ByteWriter &w, const mem::CacheStats &s)
{
    for (std::uint64_t v :
         {s.ifetches, s.loads, s.stores, s.atomics, s.l1iHits, s.l1dHits,
          s.l2Accesses, s.l2Hits, s.missCold, s.missCoherence,
          s.missCapacity, s.c2cTransfers, s.upgrades, s.writebacks,
          s.blockStores, s.instrMisses, s.dataMisses})
        w.u64(v);
}

bool
sameStats(const mem::CacheStats &a, const mem::CacheStats &b)
{
    sim::ByteWriter wa, wb;
    putStats(wa, a);
    putStats(wb, b);
    return wa.data() == wb.data();
}

std::uint64_t
digestRun(const core::RunResult &r)
{
    return sim::fnv1a64(core::encodeRunResult(r));
}

void
putCounts(sim::ByteWriter &w, const trace::ReplayCounts &c)
{
    for (std::uint64_t v : {c.refs, c.annotations, c.instructions,
                            c.measureTick, c.lastTick})
        w.u64(v);
    w.u8(c.sawMeasureBegin ? 1 : 0);
}

std::uint64_t
digestSharing(const std::vector<core::HierarchyReplayOutcome> &outs)
{
    sim::ByteWriter w;
    for (const core::HierarchyReplayOutcome &o : outs) {
        w.u8(o.valid ? 1 : 0);
        putCounts(w, o.counts);
        w.u64(o.perCpu.size());
        for (const mem::CacheStats &stats : o.perCpu)
            putStats(w, stats);
        putStats(w, o.aggregate);
        w.u64(o.c2cLines.size());
        for (const auto &[line, count] : o.c2cLines) {
            w.u64(line);
            w.u64(count);
        }
        w.u64(o.touchedLines);
        w.u64(o.regions.size());
        for (const mem::Hierarchy::Region &r : o.regions) {
            w.str(r.name);
            for (std::uint64_t v : {r.base, r.bytes, r.missCold,
                                    r.missCoherence, r.missCapacity})
                w.u64(v);
        }
    }
    return sim::fnv1a64(w.data());
}

std::uint64_t
digestSweep(const core::SweepReplayOutcome &o)
{
    sim::ByteWriter w;
    w.u8(o.valid ? 1 : 0);
    putCounts(w, o.counts);
    w.u64(o.instructions);
    for (const auto *side : {&o.icache, &o.dcache}) {
        w.u64(side->size());
        for (const mem::SweepResult &r : *side) {
            w.u64(r.params.sizeBytes);
            w.u32(r.params.assoc);
            w.u32(r.params.blockBytes);
            w.u64(r.accesses);
            w.u64(r.misses);
        }
    }
    return sim::fnv1a64(w.data());
}

// ---------------------------------------------------------------------
// Operation accounting: attempts, failures, digest checks
// ---------------------------------------------------------------------

/** Stored reference digests: (workload, seed, operation) -> digest. */
using RefMap = std::map<std::string, std::string>;

std::string
refKey(const std::string &workload, std::uint64_t seed,
       const std::string &op)
{
    return workload + " " + std::to_string(seed) + " " + op;
}

RefMap
loadRefs(const std::string &path)
{
    RefMap refs;
    if (path.empty())
        return refs;
    std::ifstream in(path);
    if (!in)
        refuse("cannot read reference digests '" + path + "'");
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string workload, seed, op, digest;
        if (!(fields >> workload >> seed >> op >> digest))
            refuse("malformed reference line '" + line + "'");
        refs[workload + " " + seed + " " + op] = digest;
    }
    return refs;
}

class Tally
{
  public:
    Tally(const RefMap &refs, std::string workload, std::uint64_t seed)
        : refs_(refs), workload_(std::move(workload)), seed_(seed)
    {
    }

    /**
     * Count one operation. Its digest must equal the first digest seen
     * under the same name (iterations, traced vs untraced passes, grid
     * vs one-at-a-time) and the stored reference for this seed.
     */
    void
    op(const std::string &name, std::uint64_t digest, bool ok = true,
       const std::string &why = "")
    {
        ++attempted_;
        if (!ok) {
            fail(name, why);
            return;
        }
        const std::string hex = sim::hashHex(digest);
        auto [it, first] = digests_.emplace(name, hex);
        if (!first) {
            if (it->second != hex)
                fail(name, "digest " + hex + " differs from " +
                               it->second + " seen earlier in this run");
            return;
        }
        const auto ref = refs_.find(refKey(workload_, seed_, name));
        if (ref == refs_.end())
            return;
        ++refChecked_;
        if (ref->second != hex)
            fail(name, "digest " + hex + " differs from reference " +
                           ref->second);
    }

    /** An operation that threw or produced no result. */
    void
    error(const std::string &name, const std::string &why)
    {
        ++attempted_;
        fail(name, why);
    }

    /** A failed check on an already counted operation. */
    void
    fail(const std::string &name, const std::string &why)
    {
        ++failed_;
        if (failures_.size() < 20)
            failures_.push_back(name + ": " + why);
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    std::uint64_t refChecked() const { return refChecked_; }
    const std::vector<std::string> &failures() const { return failures_; }
    const std::map<std::string, std::string> &digests() const
    {
        return digests_;
    }

  private:
    const RefMap &refs_;
    std::string workload_;
    std::uint64_t seed_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t refChecked_ = 0;
    std::vector<std::string> failures_;
    std::map<std::string, std::string> digests_;
};

// ---------------------------------------------------------------------
// Observation-only probes (traced passes only)
// ---------------------------------------------------------------------

/**
 * Host time inside Hierarchy::access(), split by GC windows. Outside
 * GC only every kSampleEvery-th access is stamped, so that the stamps
 * do not swamp the tens of nanoseconds they measure, and the sampled
 * time is scaled up by the stride; inside the short GC windows every
 * access is stamped. Each stamped interval is charged net of one clock
 * read, calibrated at start-up.
 */
class AccessClock final : public mem::AccessObserver
{
  public:
    static constexpr std::uint64_t kSampleEvery = 16;

    explicit AccessClock(Clock::duration clockRead) : clockRead_(clockRead)
    {
    }

    void
    preAccess(const mem::MemRef &, sim::Tick) override
    {
        ++accesses;
        stamping_ = inGc || accesses % kSampleEvery == 0;
        if (stamping_)
            start_ = Clock::now();
    }

    void
    postAccess(const mem::MemRef &, const mem::AccessResult &,
               sim::Tick) override
    {
        if (!stamping_)
            return;
        const Clock::duration d = Clock::now() - start_ - clockRead_;
        if (inGc) {
            inGc_ += d;
            ++inGcAccesses;
        } else {
            sampled_ += d;
        }
    }

    /** Estimated host seconds in access(), GC windows included. */
    double
    seconds() const
    {
        return toSeconds(sampled_) * kSampleEvery + inGcSeconds();
    }

    double inGcSeconds() const { return toSeconds(inGc_); }

    /** Host cost of the stamps taken inside GC windows. */
    double
    inGcStampSeconds() const
    {
        return toSeconds(clockRead_) * static_cast<double>(inGcAccesses);
    }

    bool inGc = false;
    std::uint64_t accesses = 0;
    std::uint64_t inGcAccesses = 0;

  private:
    Clock::duration clockRead_;
    bool stamping_ = false;
    Clock::time_point start_;
    Clock::duration sampled_{};
    Clock::duration inGc_{};
};

/** Cost of one steady_clock read on this host. */
Clock::duration
calibrateClockRead()
{
    constexpr int reads = 1 << 18;
    const Clock::time_point t0 = Clock::now();
    Clock::time_point last = t0;
    for (int i = 0; i < reads; ++i)
        last = Clock::now();
    return (last - t0) / reads;
}

/**
 * Host time between GcBegin and GcEnd annotations. Attached to the
 * System only (the hierarchy's reference stream is detached), so it
 * sees the sparse annotations and never a per-reference call.
 */
class GcClock final : public mem::TraceSink
{
  public:
    explicit GcClock(AccessClock &access) : access_(access) {}

    void ref(const mem::MemRef &, sim::Tick) override {}

    void
    annotation(mem::TraceAnnotation kind, unsigned, sim::Tick,
               std::uint64_t) override
    {
        using mem::TraceAnnotation;
        if (kind == TraceAnnotation::GcBegin) {
            start_ = Clock::now();
            access_.inGc = true;
        } else if ((kind == TraceAnnotation::GcEndMinor ||
                    kind == TraceAnnotation::GcEndMajor) &&
                   access_.inGc) {
            total += Clock::now() - start_;
            access_.inGc = false;
        }
    }

    Clock::duration total{};

  private:
    AccessClock &access_;
    Clock::time_point start_;
};

// ---------------------------------------------------------------------
// Simulated counts of a set of runs (per-layer metrics)
// ---------------------------------------------------------------------

struct SimCounts
{
    std::uint64_t ifetches = 0, l1iHits = 0, l1dAccesses = 0, l1dHits = 0;
    std::uint64_t l2Accesses = 0, l2Hits = 0, l2Misses = 0, c2c = 0;
    std::uint64_t refs = 0, instructions = 0, cycles = 0;
    std::uint64_t busQueue = 0, dirNacks = 0, dirRetries = 0;
    std::uint64_t dirOccQueue = 0, linkQueue = 0;
    std::uint64_t numaLocal = 0, numaRemote = 0;
    std::uint64_t gcMinor = 0, gcPause = 0, tlabRefills = 0;
    std::uint64_t idle = 0, modesTotal = 0;
    std::uint64_t contextSwitches = 0, migrations = 0;

    void
    addCache(const mem::CacheStats &s)
    {
        ifetches += s.ifetches;
        l1iHits += s.l1iHits;
        l1dAccesses += s.loads + s.stores;
        l1dHits += s.l1dHits;
        l2Accesses += s.l2Accesses;
        l2Hits += s.l2Hits;
        l2Misses += s.l2Misses();
        c2c += s.c2cTransfers;
        refs += s.ifetches + s.loads + s.stores + s.atomics;
    }

    /** Everything but the cache counts, from a run's snapshot. */
    void
    addSystem(const core::RunResult &r)
    {
        const auto &c = r.metrics->counters;
        auto get = [&c](const std::string &name) -> std::uint64_t {
            const auto it = c.find(name);
            return it == c.end() ? 0 : it->second;
        };
        instructions += r.cpi.instructions;
        cycles += r.cpi.totalCycles();
        busQueue += get("mem.bus.queue_delay");
        dirNacks += get("mem.dir.nacks");
        dirRetries += get("mem.dir.retries");
        dirOccQueue += get("mem.dir.occupancy_queue_delay");
        linkQueue += get("mem.numa.link.queue_delay");
        numaLocal += get("mem.numa.local_misses");
        numaRemote += get("mem.numa.remote_misses");
        gcMinor += get("jvm.gc.minor");
        gcPause += get("jvm.gc.pause_cycles");
        tlabRefills += get("jvm.tlab.refills");
        idle += get("os.modes.all.idle");
        for (const char *mode : {"user", "system", "idle", "gc_idle", "io"})
            modesTotal += get(std::string("os.modes.all.") + mode);
        contextSwitches += get("os.sched.context_switches");
        migrations += get("os.sched.migrations");
    }

    /** A whole execution-driven run (all-CPU cache counts). */
    void
    addRun(const core::RunResult &r)
    {
        const auto &c = r.metrics->counters;
        auto get = [&c](const char *name) -> std::uint64_t {
            const auto it = c.find(std::string("mem.all.") + name);
            return it == c.end() ? 0 : it->second;
        };
        mem::CacheStats all;
        all.ifetches = get("ifetches");
        all.loads = get("loads");
        all.stores = get("stores");
        all.atomics = get("atomics");
        all.l1iHits = get("l1i_hits");
        all.l1dHits = get("l1d_hits");
        all.l2Accesses = get("l2_accesses");
        all.l2Hits = get("l2_hits");
        all.missCold = get("miss_cold");
        all.missCoherence = get("miss_coherence");
        all.missCapacity = get("miss_capacity");
        all.c2cTransfers = get("c2c_transfers");
        addCache(all);
        addSystem(r);
    }

    void
    put(Values &v) const
    {
        auto ratio = [](std::uint64_t num, std::uint64_t den) {
            return den ? static_cast<double>(num) /
                             static_cast<double>(den)
                       : 0.0;
        };
        v["mem.l1i_hit_ratio"] = ratio(l1iHits, ifetches);
        v["mem.l1d_hit_ratio"] = ratio(l1dHits, l1dAccesses);
        v["mem.l2_hit_ratio"] = ratio(l2Hits, l2Accesses);
        v["mem.l2_misses"] = static_cast<double>(l2Misses);
        v["mem.c2c_transfers"] = static_cast<double>(c2c);
        v["mem.bus.queue_delay"] = static_cast<double>(busQueue);
        v["mem.dir.nacks"] = static_cast<double>(dirNacks);
        v["mem.dir.retries"] = static_cast<double>(dirRetries);
        v["mem.dir.occupancy_queue_delay"] =
            static_cast<double>(dirOccQueue);
        v["mem.numa.link.queue_delay"] = static_cast<double>(linkQueue);
        v["mem.numa.remote_frac"] =
            ratio(numaRemote, numaLocal + numaRemote);
        v["jvm.gc.minor"] = static_cast<double>(gcMinor);
        v["jvm.gc.pause_cycles"] = static_cast<double>(gcPause);
        v["jvm.tlab.refills"] = static_cast<double>(tlabRefills);
        v["os.idle_frac"] = ratio(idle, modesTotal);
        v["os.sched.context_switches"] =
            static_cast<double>(contextSwitches);
        v["os.sched.migrations"] = static_cast<double>(migrations);
        v["cpu.instructions"] = static_cast<double>(instructions);
        v["cpu.cpi"] = ratio(cycles, instructions);
    }
};

// ---------------------------------------------------------------------
// Host-speed yardstick
// ---------------------------------------------------------------------

/**
 * Host seconds of a fixed kernel shaped like the simulator's hot path
 * but sharing no code with it: sixteen 8-way LRU tag arrays and an
 * open-addressing line table, freshly allocated, fed 2M pseudo-random
 * references with a hot and a cold region. The host this benchmark
 * runs on shares its cores, caches and memory with other tenants, and
 * its speed drifts by tens of percent over minutes; this kernel's time
 * tracks the simulator's closely (log-time correlation about 0.9 for
 * both execution-driven points and trace replay), so host times are
 * reported scaled by kYardstickReference over the kernel's time
 * measured around them.
 */
double
yardstickSeconds()
{
    constexpr unsigned caches = 16, sets = 4096, ways = 8;
    const Clock::time_point t0 = Clock::now();
    std::vector<std::uint64_t> tags(caches * sets * ways, ~0ULL);
    std::vector<std::uint32_t> age(tags.size(), 0);
    std::vector<std::uint64_t> lines(1u << 21, 0);
    std::uint64_t x = 88172645463325252ULL, hits = 0;
    std::uint32_t clock = 0;
    for (std::uint32_t i = 0; i < (1u << 21); ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // Three in four references go to a 16 MB hot region.
        const std::uint64_t line =
            (x & 3) ? ((x >> 8) & 0x3ffff) : ((x >> 8) & 0xffffff);
        const std::size_t base =
            (std::size_t{i & (caches - 1)} * sets + (line & (sets - 1))) *
            ways;
        ++clock;
        unsigned way = 0;
        while (way < ways && tags[base + way] != line)
            ++way;
        if (way < ways) {
            age[base + way] = clock;
            ++hits;
            continue;
        }
        unsigned victim = 0;
        for (unsigned w = 1; w < ways; ++w) {
            if (age[base + w] < age[base + victim])
                victim = w;
        }
        tags[base + victim] = line;
        age[base + victim] = clock;
        std::size_t slot = (line * 0x9e3779b97f4a7c15ULL) >> 43;
        while (lines[slot] != 0 && lines[slot] != line + 1)
            slot = (slot + 1) & (lines.size() - 1);
        lines[slot] = line + 1;
    }
    // Keep the result observable so the loop cannot be dropped.
    static volatile std::uint64_t sink;
    sink = hits;
    return secondsSince(t0);
}

/** The yardstick's time on a quiet 4-vCPU Xeon host (seconds). */
constexpr double kYardstickReference = 0.15;

/**
 * Host seconds of work between two yardstick samples inside a pass.
 * The host's speed moves within seconds, so a multi-second iteration
 * is sampled in segments of about this length rather than only at its
 * ends.
 */
constexpr double kSegmentSeconds = 1.0;

/**
 * Scales host times measured between yardstick samples to the
 * reference host speed. An interval may be cut into segments by
 * checkpoint(); each segment is scaled by the mean of the samples at
 * its ends, and the interval's factor is the time-weighted mean of
 * its segments' factors.
 */
class HostSpeed
{
  public:
    HostSpeed() { sample(); }

    /** Factor for the interval since the previous call (or start). */
    double
    next()
    {
        endSegment();
        double time = 0.0, scaled = 0.0;
        for (const auto &[seconds, factor] : segments_) {
            time += seconds;
            scaled += seconds * factor;
        }
        segmentFactors_.clear();
        for (const auto &segment : segments_)
            segmentFactors_.push_back(segment.second);
        segments_.clear();
        const double factor = scaled / time;
        factors_.push_back(factor);
        return factor;
    }

    /** Index of the open segment within the open interval. */
    std::size_t segment() const { return segments_.size(); }

    /** Per-segment factors of the interval next() last closed. */
    const std::vector<double> &
    segmentFactors() const
    {
        return segmentFactors_;
    }

    /**
     * Take a sample if a segment's worth of work has passed since the
     * last one; returns the host seconds the sample took.
     */
    double
    checkpoint()
    {
        if (secondsSince(lastEnd_) < kSegmentSeconds)
            return 0.0;
        return endSegment();
    }

    /** Start a new interval without scoring the one just ended. */
    void
    restart()
    {
        segments_.clear();
        sample();
    }

    const std::vector<double> &samples() const { return samples_; }
    const std::vector<double> &factors() const { return factors_; }

  private:
    double
    sample()
    {
        last_ = yardstickSeconds();
        samples_.push_back(last_);
        lastEnd_ = Clock::now();
        return last_;
    }

    double
    endSegment()
    {
        const double seconds = secondsSince(lastEnd_);
        const double before = last_;
        const double now = sample();
        segments_.emplace_back(seconds,
                               kYardstickReference / (0.5 * (before + now)));
        return now;
    }

    double last_ = 0.0;
    Clock::time_point lastEnd_;
    std::vector<double> samples_;
    std::vector<double> factors_;
    std::vector<double> segmentFactors_;
    std::vector<std::pair<double, double>> segments_;
};

// ---------------------------------------------------------------------
// One timed pass over a workload's fixed work
// ---------------------------------------------------------------------

/** End-to-end observations of one pass. */
struct Pass
{
    /** Host seconds for the fixed work, set-up and teardown included. */
    double wall = 0.0;
    /** Host seconds of set-up inside the pass (0: measured apart). */
    double setup = 0.0;
    /** Host seconds the simulation rates are taken over. */
    double simSeconds = 0.0;
    std::uint64_t instructions = 0;
    std::uint64_t refs = 0;
    /** Host seconds per operation a user submits. */
    std::vector<double> opSeconds;
    /** Host-speed segment each operation ran in (serial passes). */
    std::vector<std::size_t> opSegments;
    /** Peak RSS while each operation ran (one-at-a-time passes). */
    std::vector<double> opPeakRssMb;
    /** Per-layer values (traced passes, and grid timings). */
    Values layers;
    /** Deterministic results of the pass, by operation. */
    std::vector<core::RunResult> results;
};

/** Build, measure and tear down one point, optionally probed. */
struct PointRun
{
    core::RunResult result;
    double build = 0.0, measure = 0.0, teardown = 0.0, buildRssMb = 0.0;
    double peakRssMb = 0.0;
    double access = 0.0, gcHost = 0.0, gcAccess = 0.0;
    std::uint64_t accesses = 0;
};

PointRun
runPoint(const core::ExperimentSpec &spec, bool traced)
{
    static const Clock::duration clockRead = calibrateClockRead();
    PointRun p;
    AccessClock access(clockRead);
    GcClock gc(access);

    // Hand freed pages back first, so the build's growth shows in RSS
    // instead of landing in memory an earlier point left behind.
    if (traced)
        malloc_trim(0);
    const double rss0 = rssMb();
    resetPeakRss();
    Clock::time_point t0 = Clock::now();
    core::BuiltWorkload workload;
    std::unique_ptr<core::System> system =
        core::buildSystem(spec, workload);
    p.build = secondsSince(t0);
    p.buildRssMb = rssMb() - rss0;

    if (traced) {
        system->memory().setAccessObserver(&access);
        system->setTraceSink(&gc);
        system->memory().setTraceSink(nullptr);
    }
    t0 = Clock::now();
    p.result = core::measure(*system, spec, workload);
    p.measure = secondsSince(t0);
    if (traced) {
        system->memory().setAccessObserver(nullptr);
        system->setTraceSink(nullptr);
    }

    t0 = Clock::now();
    system.reset();
    workload = core::BuiltWorkload();
    p.teardown = secondsSince(t0);
    p.peakRssMb = windowPeakRssMb();

    p.access = access.seconds();
    p.gcAccess = access.inGcSeconds() + access.inGcStampSeconds();
    p.gcHost = toSeconds(gc.total);
    p.accesses = access.accesses;
    return p;
}

/**
 * Every spec one at a time (--jobs=1 semantics). Traced passes fill
 * the per-layer values of the core, mem, jvm, os and cpu layers. With
 * `speed`, host-speed samples are taken between points as they fall
 * due, and left out of the pass's wall time.
 */
Pass
serialPass(const std::vector<core::ExperimentSpec> &specs, Tally &tally,
           bool traced, HostSpeed *speed = nullptr)
{
    Pass pass;
    double build = 0, measure = 0, teardown = 0, buildRss = 0;
    double access = 0, gcHost = 0, gcAccess = 0;
    std::uint64_t accesses = 0;
    SimCounts counts;
    double paused = 0.0;
    const Clock::time_point t0 = Clock::now();
    for (const core::ExperimentSpec &spec : specs) {
        if (speed)
            paused += speed->checkpoint();
        const std::string name = core::pointName(spec);
        PointRun p;
        try {
            p = runPoint(spec, traced);
        } catch (const std::exception &e) {
            tally.error(name, e.what());
            continue;
        }
        tally.op(name, digestRun(p.result));
        build += p.build;
        measure += p.measure;
        teardown += p.teardown;
        buildRss = std::max(buildRss, p.buildRssMb);
        access += p.access;
        gcHost += p.gcHost;
        gcAccess += p.gcAccess;
        accesses += p.accesses;
        pass.setup += p.build;
        pass.simSeconds += p.measure;
        pass.opSeconds.push_back(p.build + p.measure + p.teardown);
        pass.opSegments.push_back(speed ? speed->segment() : 0);
        pass.opPeakRssMb.push_back(p.peakRssMb);
        counts.addRun(p.result);
        pass.results.push_back(std::move(p.result));
    }
    pass.wall = secondsSince(t0) - paused;
    pass.instructions = counts.instructions;
    pass.refs = counts.refs;

    Values &v = pass.layers;
    if (traced) {
        const double gcSelf = gcHost - gcAccess;
        v["core.build_s"] = build;
        v["core.teardown_s"] = teardown;
        v["core.build_rss_mb"] = buildRss;
        v["core.measure_s"] = measure;
        v["core.points"] = static_cast<double>(specs.size());
        v["core.run_self_s"] = measure - access - gcSelf;
        v["mem.access_s"] = access;
        v["mem.accesses"] = static_cast<double>(accesses);
        v["mem.access_ns"] =
            accesses ? 1e9 * access / static_cast<double>(accesses) : 0.0;
        v["jvm.gc_host_s"] = gcHost;
        v["jvm.gc_self_s"] = gcSelf;
        counts.put(v);
    }
    return pass;
}

/** Grid timings from an untraced pass run with `jobs` workers. */
void
putGrid(Values &v, const Pass &grid, const Pass &serial, unsigned jobs)
{
    double sum = 0.0, longPole = 0.0;
    for (double s : serial.opSeconds) {
        sum += s;
        longPole = std::max(longPole, s);
    }
    v["core.grid_makespan_s"] = grid.wall;
    v["core.grid_point_s_sum"] = sum;
    v["core.grid_long_pole_s"] = longPole;
    v["core.grid_parallel_eff"] =
        grid.wall > 0.0 ? sum / (static_cast<double>(jobs) * grid.wall)
                        : 0.0;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/**
 * e6000-grid runs the Figure 4 grid at this share of the paper
 * intervals (the MIDDLESIM_QUICK scale), so that a run holds several
 * timed iterations.
 */
constexpr double kE6000TimeScale = 0.5;

std::vector<core::ExperimentSpec>
e6000Specs(std::uint64_t seed)
{
    std::vector<core::ExperimentSpec> specs;
    for (double cpus : core::paper::cpuSweep()) {
        for (core::WorkloadKind kind :
             {core::WorkloadKind::Ecperf, core::WorkloadKind::SpecJbb}) {
            core::ExperimentSpec spec;
            spec.workload = kind;
            spec.appCpus = static_cast<unsigned>(cpus);
            spec.seed = seed;
            spec.warmup = static_cast<sim::Tick>(
                static_cast<double>(spec.warmup) * kE6000TimeScale);
            spec.measure = static_cast<sim::Tick>(
                static_cast<double>(spec.measure) * kE6000TimeScale);
            specs.push_back(core::repeatedSpec(spec, 0));
        }
    }
    return specs;
}

using Curve = std::vector<std::pair<double, double>>;

/** Mean relative error of measured (x, y) points against a paper curve. */
double
curveErr(const Curve &measured, const stats::Series &paper)
{
    double err = 0.0;
    unsigned n = 0;
    for (const auto &[x, y] : measured) {
        const double want = paper.yAt(x);
        if (want <= 0.0)
            continue; // the paper has no point here
        err += std::abs(y - want) / want;
        ++n;
    }
    return n ? err / n : 0.0;
}

/**
 * Fidelity of the grid: the mean, over the six paper curves it
 * regenerates (Figure 4 speedup, Figure 6 CPI and Figure 8 c2c ratio,
 * for ECperf and SPECjbb), of each curve's mean relative error. The
 * speedup curves alone swing with the seed, as a collection falling in
 * or out of a short interval moves a point's throughput; CPI and c2c
 * ratio hold steady.
 */
double
e6000PaperErr(const std::vector<core::ExperimentSpec> &specs,
              const std::vector<core::RunResult> &results)
{
    if (results.size() != specs.size())
        return 0.0;
    double base[2] = {0.0, 0.0};
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (specs[i].appCpus == 1)
            base[specs[i].workload == core::WorkloadKind::SpecJbb] =
                results[i].throughput;
    }
    Curve speedup[2], cpi[2], c2c[2];
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const bool jbb = specs[i].workload == core::WorkloadKind::SpecJbb;
        const double cpus = specs[i].appCpus;
        if (cpus > 1 && base[jbb] > 0.0)
            speedup[jbb].emplace_back(cpus,
                                      results[i].throughput / base[jbb]);
        cpi[jbb].emplace_back(cpus, results[i].cpi.cpi());
        c2c[jbb].emplace_back(cpus, 100.0 * results[i].cache.c2cRatio());
    }
    namespace paper = core::paper;
    return (curveErr(speedup[0], paper::fig4Ecperf()) +
            curveErr(speedup[1], paper::fig4SpecJbb()) +
            curveErr(cpi[0], paper::fig6EcperfCpi()) +
            curveErr(cpi[1], paper::fig6SpecJbbCpi()) +
            curveErr(c2c[0], paper::fig8Ecperf()) +
            curveErr(c2c[1], paper::fig8SpecJbb())) /
           6.0;
}

/**
 * manycore-dir: the 256/512-CPU directory points, the contended
 * 256-CPU ring/mesh pair, and the 16-CPU snooping anchor that ties
 * the many-core curves to the paper's machine (paper_err).
 */
std::vector<core::ExperimentSpec>
manycoreSpecs(std::uint64_t seed)
{
    core::FigureOptions opt;
    opt.seed = seed;
    return {
        core::manycoreSpec(16, sim::CoherenceProtocol::SnoopBus, opt),
        core::manycoreSpec(256, sim::CoherenceProtocol::DirectoryMesi, opt),
        core::manycoreSpec(512, sim::CoherenceProtocol::DirectoryMesi, opt),
        core::manycoreContendedSpec(256, sim::Topology::Ring, opt),
        core::manycoreContendedSpec(256, sim::Topology::Mesh, opt),
    };
}

/**
 * Relative error of the snooping anchor's CPI and c2c ratio against
 * the paper's largest measured point (Figures 6 and 8, 15 CPUs).
 */
double
manycorePaperErr(const std::vector<core::RunResult> &results)
{
    if (results.empty())
        return 0.0;
    const core::RunResult &anchor = results.front();
    return (curveErr({{15, anchor.cpi.cpi()}},
                     core::paper::fig6SpecJbbCpi()) +
            curveErr({{15, 100.0 * anchor.cache.c2cRatio()}},
                     core::paper::fig8SpecJbb())) /
           2.0;
}

/** All specs through core::runGrid, with the run-cache memo cleared. */
Pass
gridPass(const std::vector<core::ExperimentSpec> &specs, Tally &tally)
{
    Pass pass;
    core::RunCache &cache = core::RunCache::global();
    cache.clearMemory();
    cache.resetStats();
    resetPeakRss();
    const Clock::time_point t0 = Clock::now();
    try {
        pass.results = core::runGrid(specs);
    } catch (const std::exception &e) {
        tally.error("grid", e.what());
        return pass;
    }
    pass.wall = secondsSince(t0);
    pass.opPeakRssMb.push_back(windowPeakRssMb());
    const core::RunCache::Stats st = cache.stats();
    if (st.memoryHits + st.diskHits != 0)
        tally.fail("grid", std::to_string(st.memoryHits + st.diskHits) +
                               " points served from the run cache");
    cache.clearMemory();

    SimCounts counts;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        tally.op(core::pointName(specs[i]), digestRun(pass.results[i]));
        counts.addRun(pass.results[i]);
    }
    pass.simSeconds = pass.wall;
    pass.instructions = counts.instructions;
    pass.refs = counts.refs;
    pass.opSeconds.push_back(pass.wall);
    return pass;
}

/**
 * replay-what-if records at this share of the paper intervals: an
 * iteration then takes about a second, so that a run holds enough
 * iterations for its medians to ride out a slow stretch of the host.
 */
constexpr double kReplayTimeScale = 0.125;

/**
 * replay-what-if: one 16-CPU ECperf run with communication tracking.
 * ECperf rather than SPECjbb because its work per window hardly moves
 * with the seed (instructions within about 1% over 32 seeds), where a
 * 16-CPU SPECjbb window swings by half or more with how many of its
 * warehouse threads sit idle, and the replay time with it.
 */
core::ExperimentSpec
replaySpec(std::uint64_t seed)
{
    core::ExperimentSpec spec;
    spec.workload = core::WorkloadKind::Ecperf;
    spec.appCpus = 16;
    spec.seed = seed;
    spec.trackCommunication = true;
    spec.warmup = static_cast<sim::Tick>(
        static_cast<double>(spec.warmup) * kReplayTimeScale);
    spec.measure = static_cast<sim::Tick>(
        static_cast<double>(spec.measure) * kReplayTimeScale);
    return spec;
}

const std::vector<unsigned> kShareDegrees = {1, 2, 4, 8};

/** Frontends fed per iteration: one hierarchy per degree + the sweep. */
std::uint64_t
replayFrontends()
{
    return kShareDegrees.size() + 1;
}

/**
 * Mean of the relative errors of the Figure 16 data-miss curve and of
 * the recorded run's CPI and c2c ratio against the paper's largest
 * measured point (Figures 6 and 8, 15 CPUs). The Figure 16 error alone
 * is a small difference of seed-dependent miss rates and spread by a
 * tenth of itself over ten seeds.
 */
double
replayPaperErr(const std::vector<core::HierarchyReplayOutcome> &outs,
               const core::RunResult &recorded)
{
    Curve mpki;
    for (std::size_t i = 0; i < outs.size(); ++i) {
        if (outs[i].valid && outs[i].counts.instructions != 0)
            mpki.emplace_back(
                kShareDegrees[i],
                1000.0 * static_cast<double>(outs[i].aggregate.dataMisses) /
                    static_cast<double>(outs[i].counts.instructions));
    }
    return (curveErr(mpki, core::paper::fig16Ecperf()) +
            curveErr({{15, recorded.cpi.cpi()}},
                     core::paper::fig6EcperfCpi()) +
            curveErr({{15, 100.0 * recorded.cache.c2cRatio()}},
                     core::paper::fig8Ecperf())) /
           3.0;
}

/**
 * Record the run (set-up), then answer the what-if questions from the
 * trace: the Figure 16 sharing fan-out and the Figure 12/13 sweep. A
 * traced pass adds a decode-only pass, the baseline both replay self
 * times are taken against.
 */
Pass
replayPass(const core::ExperimentSpec &spec, Tally &tally, bool traced,
           double *paperErr)
{
    Pass pass;
    Values &v = pass.layers;
    const Clock::time_point t0 = Clock::now();
    {
        Clock::time_point t = Clock::now();
        core::TraceRecordOutcome rec;
        try {
            rec = core::recordTraceRun(spec);
        } catch (const std::exception &e) {
            tally.error("record", e.what());
            return pass;
        }
        pass.setup = secondsSince(t);
        const std::size_t traceBytes = rec.traceData.size();
        tally.op("record", digestRun(rec.result) ^
                               sim::fnv1a64(rec.traceData),
                 !rec.traceData.empty(), "empty trace");

        double decode = 0.0;
        trace::ReplayCounts decoded;
        if (traced) {
            std::string data = rec.traceData;
            t = Clock::now();
            trace::TraceReader reader(std::move(data));
            decoded = trace::replayTrace(reader, nullptr, nullptr);
            decode = secondsSince(t);
            sim::ByteWriter w;
            putCounts(w, decoded);
            tally.op("decode", sim::fnv1a64(w.data()), reader.complete(),
                     "invalid trace: " + reader.error());
        }

        std::vector<core::HierarchyReplayOutcome> outs;
        std::string data = rec.traceData;
        resetPeakRss();
        t = Clock::now();
        std::string threw;
        try {
            outs = core::replayTraceSharing(std::move(data), kShareDegrees);
        } catch (const std::exception &e) {
            threw = e.what();
        }
        const double sharing = secondsSince(t);
        if (outs.size() != kShareDegrees.size()) {
            tally.error("sharing", threw.empty() ? "no outcome per degree"
                                                 : threw);
        } else {
            bool valid = true;
            for (const auto &o : outs)
                valid = valid && o.valid;
            // Private L2s (degree 1) are the recorded machine: the
            // replay must reproduce the recorded run exactly.
            const core::HierarchyReplayOutcome &same = outs.front();
            bool equal = same.perCpu.size() == rec.perCpu.size() &&
                         sameStats(same.aggregate, rec.aggregate) &&
                         same.c2cLines == rec.c2cLines &&
                         same.touchedLines == rec.touchedLines;
            for (std::size_t c = 0; equal && c < rec.perCpu.size(); ++c)
                equal = sameStats(same.perCpu[c], rec.perCpu[c]);
            tally.op("sharing", digestSharing(outs), valid && equal,
                     valid ? "degree-1 replay differs from the recorded run"
                           : "invalid trace: " + outs.front().error);
            if (paperErr)
                *paperErr = replayPaperErr(outs, rec.result);
        }

        core::SweepReplayOutcome sweep;
        t = Clock::now();
        try {
            sweep = core::replayTraceSweep(std::move(rec.traceData));
            sweep.error = "invalid trace: " + sweep.error;
        } catch (const std::exception &e) {
            sweep.error = e.what();
        }
        const double sweepSeconds = secondsSince(t);
        tally.op("sweep", digestSweep(sweep), sweep.valid, sweep.error);

        pass.simSeconds = sharing + sweepSeconds;
        pass.instructions = sweep.instructions * replayFrontends();
        pass.refs = sweep.counts.refs * replayFrontends();
        pass.opSeconds.push_back(sharing + sweepSeconds);
        pass.opPeakRssMb.push_back(windowPeakRssMb());

        if (traced) {
            SimCounts counts;
            for (const auto &o : outs)
                counts.addCache(o.aggregate);
            counts.addSystem(rec.result);
            counts.put(v);
            v["trace.record_s"] = pass.setup;
            v["trace.decode_s"] = decode;
            v["trace.refs"] = static_cast<double>(decoded.refs);
            v["trace.bytes"] = static_cast<double>(traceBytes);
            v["mem.replay_self_s"] = sharing - decode;
            v["stackdist.sweep_self_s"] = sweepSeconds - decode;
        }
    }
    pass.wall = secondsSince(t0);
    return pass;
}

// ---------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * The highest-percentile sample with at least ten samples beyond it.
 * Up to twenty samples that percentile falls under the median and is
 * no tail, so the median is reported.
 */
double
tail(std::vector<double> v, double *percentile)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n <= 20) {
        *percentile = 50.0;
        return median(v);
    }
    *percentile = 100.0 * static_cast<double>(n - 10) /
                  static_cast<double>(n);
    return v[n - 11];
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonList(const std::vector<double> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? ", " : "") + jsonNumber(values[i]);
    return out + "]";
}

std::string
jsonString(const std::string &s)
{
    return "\"" + sim::jsonEscape(s) + "\"";
}

void
printMetrics(std::ostream &os, const Values &values,
             const MetricDef *defs, std::size_t n)
{
    os << "{";
    for (std::size_t i = 0; i < n; ++i) {
        const auto it = values.find(defs[i].name);
        const double v = it == values.end() ? 0.0 : it->second;
        os << (i ? ", " : "") << jsonString(defs[i].name)
           << ": {\"value\": " << jsonNumber(v)
           << ", \"unit\": " << jsonString(defs[i].unit) << "}";
    }
    os << "}";
}

// ---------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    std::string refs;
    std::string revision = "unknown";
};

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos ||
        text.size() > 18)
        refuse(flag + " wants a whole number, got '" + text + "'");
    return std::stoull(text);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            refuse("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            a.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            a.seed = parseUnsigned(flag, value);
        } else if (flag == "--seconds") {
            a.seconds = static_cast<double>(parseUnsigned(flag, value));
            if (a.seconds < 1 || a.seconds > 600)
                refuse("--seconds must be within 1..600");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                refuse("--trace wants 0 or 1");
            a.traced = value == "1";
        } else if (flag == "--refs") {
            a.refs = value;
        } else if (flag == "--revision") {
            a.revision = value;
        } else {
            refuse("unknown flag " + flag +
                   " (want --workload --seed --seconds --trace "
                   "[--refs FILE] [--revision TEXT])");
        }
    }
    if (!haveWorkload)
        refuse("--workload is required");
    if (a.workload != "e6000-grid" && a.workload != "manycore-dir" &&
        a.workload != "replay-what-if")
        refuse("unknown workload '" + a.workload +
               "' (want e6000-grid, manycore-dir or replay-what-if)");
    return a;
}

/** Refuse settings that would silently change the measured work. */
void
checkEnvironment()
{
    for (const char *name :
         {"MIDDLESIM_CACHE", "MIDDLESIM_TIMESCALE", "MIDDLESIM_QUICK",
          "MIDDLESIM_RUNS", "MIDDLESIM_PROTOCOL", "MIDDLESIM_NUMA_NODES",
          "MIDDLESIM_TOPOLOGY", "MIDDLESIM_DIR_OCCUPANCY",
          "MIDDLESIM_CHECK", "MIDDLESIM_TRACE", "MIDDLESIM_JOBS"}) {
        if (std::getenv(name))
            refuse(std::string(name) +
                   " is set; it changes the measured work. Unset it.");
    }
    const std::string flags = PERFBENCH_CXX_FLAGS;
    if (PERFBENCH_SANITIZED || flags.find("-fsanitize") != std::string::npos)
        refuse("sanitizer build; time an uninstrumented build");
    if (flags.find("--coverage") != std::string::npos ||
        flags.find("-fprofile-arcs") != std::string::npos)
        refuse("coverage build; time an uninstrumented build");
    if (!PERFBENCH_OPTIMIZED)
        refuse("unoptimized (-O0) build; time an optimized build");
}

} // namespace

int
main(int argc, char **argv)
{
    checkEnvironment();
    const Args args = parseArgs(argc, argv);
    const RefMap refs = loadRefs(args.refs);
    Tally tally(refs, args.workload, args.seed);

    const unsigned hostThreads =
        std::max(1u, std::thread::hardware_concurrency());
    const bool manycore = args.workload == "manycore-dir";
    const bool replay = args.workload == "replay-what-if";
    const unsigned gridJobs = manycore ? std::min(4u, hostThreads) : 1u;
    sim::ThreadPool::setGlobalJobs(gridJobs);
    core::configureTracing("", "");
    core::RunCache::global().setDiskDir("");

    std::vector<core::ExperimentSpec> specs;
    if (manycore)
        specs = manycoreSpecs(args.seed);
    else if (!replay)
        specs = e6000Specs(args.seed);
    const core::ExperimentSpec recordSpec = replaySpec(args.seed);

    HostSpeed speed;

    // The workload's untraced pass: the fixed work wall_s times.
    double paperErr = 0.0;
    auto untraced = [&]() -> Pass {
        if (replay)
            return replayPass(recordSpec, tally, false, &paperErr);
        Pass p = manycore ? gridPass(specs, tally)
                          : serialPass(specs, tally, false, &speed);
        paperErr = manycore ? manycorePaperErr(p.results)
                            : e6000PaperErr(specs, p.results);
        return p;
    };

    // manycore-dir builds inside runGrid, out of reach of a span: time
    // its set-up apart, building every point one at a time.
    std::vector<double> setupSamples;
    if (manycore) {
        for (int rep = 0; rep < 5; ++rep) {
            double sum = 0.0;
            for (const core::ExperimentSpec &spec : specs) {
                const Clock::time_point t0 = Clock::now();
                core::BuiltWorkload workload;
                auto system = core::buildSystem(spec, workload);
                sum += secondsSince(t0);
            }
            setupSamples.push_back(sum);
        }
        const double factor = speed.next();
        for (double &sample : setupSamples)
            sample *= factor;
    }

    // Untimed warm-up: lazy allocations and page faults settle.
    untraced();
    speed.restart();

    std::vector<double> wall, rawWall, mips, mrefs, opSeconds;
    std::vector<double> opPeakRssMb;
    std::vector<Pass> tracedPasses;
    std::vector<double> tracedWall, baseWall;
    unsigned iterations = 0;
    const Clock::time_point start = Clock::now();
    do {
        Pass p = untraced();
        ++iterations;
        opPeakRssMb.insert(opPeakRssMb.end(), p.opPeakRssMb.begin(),
                           p.opPeakRssMb.end());

        // Traced pass of the same work, plus the untraced baseline the
        // tracing overhead is taken against.
        Pass traced;
        if (args.traced && replay) {
            traced = replayPass(recordSpec, tally, true, nullptr);
            baseWall.push_back(p.wall);
        } else if (args.traced && manycore) {
            Pass serial = serialPass(specs, tally, false, &speed);
            traced = serialPass(specs, tally, true, &speed);
            putGrid(traced.layers, p, serial, gridJobs);
            baseWall.push_back(serial.wall);
        } else if (args.traced) {
            traced = serialPass(specs, tally, true, &speed);
            putGrid(traced.layers, p, p, 1);
            baseWall.push_back(p.wall);
        }

        // Host times of this iteration, at the reference host speed.
        const double f = speed.next();
        rawWall.push_back(p.wall);
        wall.push_back(p.wall * f);
        if (!manycore)
            setupSamples.push_back(p.setup * f);
        const double simSeconds = p.simSeconds * f;
        mips.push_back(simSeconds > 0.0 ? static_cast<double>(
                                              p.instructions) /
                                              simSeconds / 1e6
                                        : 0.0);
        mrefs.push_back(simSeconds > 0.0
                            ? static_cast<double>(p.refs) / simSeconds / 1e6
                            : 0.0);
        // Each point at the speed of the segment it ran in.
        const std::vector<double> &segments = speed.segmentFactors();
        for (std::size_t i = 0; i < p.opSeconds.size(); ++i)
            opSeconds.push_back(p.opSeconds[i] *
                                (i < p.opSegments.size()
                                     ? segments.at(p.opSegments[i])
                                     : f));
        if (!args.traced)
            continue;
        for (const MetricDef &def : kPerLayer) {
            const auto it = traced.layers.find(def.name);
            const std::string unit = def.unit;
            if (it != traced.layers.end() && (unit == "s" || unit == "ns"))
                it->second *= f;
        }
        tracedWall.push_back(traced.wall);
        tracedPasses.push_back(std::move(traced));
    } while (secondsSince(start) < args.seconds);

    Values e2e;
    e2e["wall_s"] = median(wall);
    e2e["setup_s"] = median(setupSamples);
    e2e["sim_mips"] = median(mips);
    e2e["mrefs_per_s"] = median(mrefs);
    e2e["point_s_p50"] = median(opSeconds);
    double tailPercentile = 0.0;
    e2e["point_s_tail"] = tail(opSeconds, &tailPercentile);
    e2e["peak_rss_mb"] = median(opPeakRssMb);
    e2e["ok_frac"] =
        tally.attempted()
            ? static_cast<double>(tally.attempted() - tally.failed()) /
                  static_cast<double>(tally.attempted())
            : 0.0;
    e2e["paper_err"] = paperErr;

    Values layers;
    if (args.traced) {
        for (const MetricDef &def : kPerLayer) {
            std::vector<double> samples;
            for (const Pass &p : tracedPasses) {
                const auto it = p.layers.find(def.name);
                samples.push_back(it == p.layers.end() ? 0.0 : it->second);
            }
            if (def.exact && !samples.empty() &&
                std::any_of(samples.begin(), samples.end(),
                            [&](double s) { return s != samples.front(); }))
                tally.fail(def.name, "count differs between traced passes");
            layers[def.name] =
                def.exact && !samples.empty() ? samples.front()
                                              : median(samples);
        }
        layers["trace_overhead"] =
            median(baseWall) > 0.0 ? median(tracedWall) / median(baseWall)
                                   : 0.0;
    }

    // Meta block: everything needed to reproduce or compare the run.
    std::ostringstream meta;
    meta << "{\"meta\": {\"benchmark\": \"middlesim-perfbench-v1\""
         << ", \"workload\": " << jsonString(args.workload)
         << ", \"seed\": " << args.seed
         << ", \"seconds\": " << jsonNumber(args.seconds)
         << ", \"trace\": " << (args.traced ? 1 : 0)
         << ", \"iterations\": " << iterations
         << ", \"warmup_iterations\": 1"
         << ", \"setup_samples\": " << setupSamples.size()
         << ", \"point_samples\": " << opSeconds.size()
         << ", \"wall_samples\": " << jsonList(wall)
         << ", \"raw_wall_samples\": " << jsonList(rawWall)
         << ", \"yardstick_reference_s\": "
         << jsonNumber(kYardstickReference)
         << ", \"yardstick_samples_s\": " << jsonList(speed.samples())
         << ", \"speed_factors\": " << jsonList(speed.factors())
         << ", \"setup_samples_s\": " << jsonList(setupSamples)
         << ", \"process_peak_rss_mb\": " << jsonNumber(peakRssMb())
         << ", \"point_tail_percentile\": " << jsonNumber(tailPercentile)
         << ", \"host_threads\": " << hostThreads
         << ", \"grid_jobs\": " << gridJobs
         << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
         << ", \"cxx_flags\": " << jsonString(PERFBENCH_CXX_FLAGS)
         << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
         << ", \"revision\": " << jsonString(args.revision)
         << ", \"ops_checked_against_reference\": " << tally.refChecked()
         << ", \"failures\": [";
    for (std::size_t i = 0; i < tally.failures().size(); ++i)
        meta << (i ? ", " : "") << jsonString(tally.failures()[i]);
    meta << "], \"digests\": {";
    bool first = true;
    for (const auto &[name, hex] : tally.digests()) {
        meta << (first ? "" : ", ") << jsonString(name) << ": "
             << jsonString(hex);
        first = false;
    }
    meta << "}}}";
    std::cout << meta.str() << "\n";

    std::cout << "{\"correct\": " << (tally.failed() ? "false" : "true")
              << ", \"attempted\": " << tally.attempted()
              << ", \"failed\": " << tally.failed() << ", \"metrics\": ";
    if (args.traced)
        printMetrics(std::cout, layers, kPerLayer, std::size(kPerLayer));
    else
        printMetrics(std::cout, e2e, kEndToEnd, std::size(kEndToEnd));
    std::cout << "}" << std::endl;
    return 0;
}
