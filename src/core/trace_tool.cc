#include "core/trace_tool.hh"

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/metrics_io.hh"
#include "core/trace_run.hh"
#include "sim/log.hh"
#include "sim/parse.hh"
#include "trace/reader.hh"

namespace middlesim::core
{

namespace
{

/** Load a trace file or fail loudly. */
std::string
loadTrace(const std::string &path)
{
    std::string data;
    if (!trace::readTraceFile(path, data))
        fatal("middlesim-trace: cannot read '", path, "'");
    return data;
}

void
printHeader(const trace::TraceHeader &h)
{
    std::printf("format:     %s\n", trace::traceMagic);
    std::printf("label:      %s\n",
                h.label.empty() ? "(none)" : h.label.c_str());
    std::printf("spec key:   %zu bytes%s\n", h.specKey.size(),
                h.specKey.empty() ? " (not spec-driven)" : "");
    std::printf("machine:    %u cpus (%u app), %u per L2\n",
                h.totalCpus, h.appCpus, h.cpusPerL2);
    std::printf("caches:     L1i %llu KB / L1d %llu KB / L2 %llu KB "
                "(%u-way, %u B blocks)\n",
                static_cast<unsigned long long>(h.l1i.sizeBytes >> 10),
                static_cast<unsigned long long>(h.l1d.sizeBytes >> 10),
                static_cast<unsigned long long>(h.l2.sizeBytes >> 10),
                h.l2.assoc, h.l2.blockBytes);
    std::printf("intervals:  warmup %llu, measure %llu ticks\n",
                static_cast<unsigned long long>(h.warmupTicks),
                static_cast<unsigned long long>(h.measureTicks));
    std::printf("seed:       %llu\n",
                static_cast<unsigned long long>(h.seed));
    std::printf("comm track: %s\n", h.trackCommunication ? "on" : "off");
    for (const trace::TraceRegion &r : h.regions) {
        std::printf("region:     %-12s base 0x%llx, %llu MB\n",
                    r.name.c_str(),
                    static_cast<unsigned long long>(r.base),
                    static_cast<unsigned long long>(r.bytes >> 20));
    }
}

int
cmdInfo(const std::string &path)
{
    trace::TraceReader reader(loadTrace(path));
    if (!reader.ok())
        fatal("middlesim-trace: '", path, "': ", reader.error());
    printHeader(reader.header());
    if (!reader.drain())
        fatal("middlesim-trace: '", path, "': ", reader.error());
    std::printf("refs:       %llu\n",
                static_cast<unsigned long long>(reader.refCount()));
    std::printf("annotations:%llu\n",
                static_cast<unsigned long long>(
                    reader.annotationCount()));
    const std::vector<std::uint64_t> &counts =
        reader.annotationCounts();
    for (std::size_t k = 0; k < counts.size(); ++k) {
        if (counts[k] == 0)
            continue;
        std::printf("  %-18s %llu\n",
                    mem::traceAnnotationName(
                        static_cast<mem::TraceAnnotation>(k)),
                    static_cast<unsigned long long>(counts[k]));
    }
    return 0;
}

int
cmdValidate(const std::string &path)
{
    std::string data;
    if (!trace::readTraceFile(path, data)) {
        std::fprintf(stderr, "INVALID %s: cannot read file\n",
                     path.c_str());
        return 1;
    }
    trace::TraceReader reader(std::move(data));
    if (!reader.ok() || !reader.drain()) {
        std::fprintf(stderr, "INVALID %s: %s\n", path.c_str(),
                     reader.error().c_str());
        return 1;
    }
    std::printf("OK %s: %llu refs, %llu annotations\n", path.c_str(),
                static_cast<unsigned long long>(reader.refCount()),
                static_cast<unsigned long long>(
                    reader.annotationCount()));
    return 0;
}

int
cmdTimeline(const std::string &path, std::uint64_t limit)
{
    trace::TraceReader reader(loadTrace(path));
    if (!reader.ok())
        fatal("middlesim-trace: '", path, "': ", reader.error());
    trace::TraceRecord rec;
    std::uint64_t shown = 0;
    while (reader.next(rec)) {
        if (rec.isRef)
            continue;
        if (shown++ >= limit) {
            std::printf("... (--limit=%llu reached)\n",
                        static_cast<unsigned long long>(limit));
            break;
        }
        std::printf("%12llu  cpu%-3u %-16s arg=%llu\n",
                    static_cast<unsigned long long>(rec.tick), rec.ref.cpu,
                    mem::traceAnnotationName(rec.kind),
                    static_cast<unsigned long long>(rec.arg));
    }
    if (!reader.ok())
        fatal("middlesim-trace: '", path, "': ", reader.error());
    return 0;
}

int
cmdRecord(const ExperimentSpec &spec, const std::string &out)
{
    if (out.empty())
        fatal("middlesim-trace: record requires --out=FILE");
    const TraceRecordOutcome rec = recordTraceRun(spec, out);
    std::printf("recorded %s -> %s\n", pointName(spec).c_str(),
                out.c_str());
    std::printf("  instructions: %llu\n",
                static_cast<unsigned long long>(
                    rec.result.cpi.instructions));
    std::printf("  throughput:   %.1f tx/s\n", rec.result.throughput);
    return 0;
}

void
printMissBreakdown(const mem::CacheStats &s, std::uint64_t touched)
{
    std::printf("  L2 accesses:  %llu (%llu hits)\n",
                static_cast<unsigned long long>(s.l2Accesses),
                static_cast<unsigned long long>(s.l2Hits));
    std::printf("  L2 misses:    %llu  (cold %llu, coherence %llu, "
                "capacity %llu)\n",
                static_cast<unsigned long long>(s.l2Misses()),
                static_cast<unsigned long long>(s.missCold),
                static_cast<unsigned long long>(s.missCoherence),
                static_cast<unsigned long long>(s.missCapacity));
    std::printf("  c2c/upgrades: %llu / %llu\n",
                static_cast<unsigned long long>(s.c2cTransfers),
                static_cast<unsigned long long>(s.upgrades));
    if (touched)
        std::printf("  touched lines:%llu\n",
                    static_cast<unsigned long long>(touched));
}

int
cmdReplay(const std::string &path,
          const trace::ReplayOverrides &overrides)
{
    HierarchyReplayOutcome out =
        replayTraceHierarchy(loadTrace(path), overrides);
    if (!out.valid)
        fatal("middlesim-trace: '", path, "': ", out.error);
    std::printf("replayed %llu refs, %llu annotations (%s)\n",
                static_cast<unsigned long long>(out.counts.refs),
                static_cast<unsigned long long>(out.counts.annotations),
                out.header.label.c_str());
    printMissBreakdown(out.aggregate, out.touchedLines);
    return 0;
}

int
cmdSweep(const std::string &path)
{
    const SweepReplayOutcome out = replayTraceSweep(loadTrace(path));
    if (!out.valid)
        fatal("middlesim-trace: '", path, "': ", out.error);
    std::fprintf(stderr, "sweep engine: %s\n", out.engine.c_str());
    std::printf("replayed %llu refs (%s), %llu instructions\n",
                static_cast<unsigned long long>(out.counts.refs),
                out.header.label.c_str(),
                static_cast<unsigned long long>(out.instructions));
    std::printf("%10s %14s %14s\n", "size", "imiss/1000", "dmiss/1000");
    for (std::size_t i = 0; i < out.icache.size(); ++i) {
        std::printf(
            "%7llu KB %14.3f %14.3f\n",
            static_cast<unsigned long long>(
                out.icache[i].params.sizeBytes >> 10),
            out.icache[i].missesPer1000(out.instructions),
            out.dcache[i].missesPer1000(out.instructions));
    }
    return 0;
}

void
printSharingRow(unsigned share, const HierarchyReplayOutcome &out,
                const std::string &path)
{
    if (!out.valid)
        fatal("middlesim-trace: '", path, "': ", out.error);
    const mem::CacheStats &s = out.aggregate;
    std::printf("%8u %12llu %12llu %12llu %12llu\n", share,
                static_cast<unsigned long long>(s.l2Misses()),
                static_cast<unsigned long long>(s.missCoherence),
                static_cast<unsigned long long>(s.missCapacity),
                static_cast<unsigned long long>(s.c2cTransfers));
}

int
cmdSharing(const std::string &path)
{
    // One decode feeds every sharing degree (fan-out replay); each
    // row equals `replay --cpus-per-l2=N` on the same trace.
    const std::string data = loadTrace(path);
    trace::TraceReader probe{std::string(data)};
    if (!probe.ok())
        fatal("middlesim-trace: '", path, "': ", probe.error());
    const unsigned total = probe.header().totalCpus;
    std::vector<unsigned> degrees;
    for (unsigned share = 1; share <= total; share *= 2) {
        if (total % share == 0)
            degrees.push_back(share);
    }

    std::printf("%8s %12s %12s %12s %12s\n", "cpusPerL2", "misses",
                "coherence", "capacity", "c2c");
    const std::vector<HierarchyReplayOutcome> outs =
        replayTraceSharing(std::string(data), degrees);
    for (std::size_t i = 0; i < degrees.size(); ++i)
        printSharingRow(degrees[i], outs[i], path);
    return 0;
}

/** Everything a subcommand's flags can set. */
struct Args
{
    ExperimentSpec spec;
    std::string out;
    trace::ReplayOverrides overrides;
    std::uint64_t limit = 100;

    Args()
    {
        spec.appCpus = 1;
        spec.totalCpus = 1;
        spec.warmup = 2'000'000;
        spec.measure = 4'000'000;
    }
};

struct Command
{
    const char *name;
    /** Placeholder of the one positional argument; nullptr = none. */
    const char *file;
    const char *help;
};

constexpr Command kCommands[] = {
    {"info", "FILE", "header + record counts"},
    {"validate", "FILE", "structural validation (exit 0 iff valid)"},
    {"timeline", "FILE", "annotation timeline"},
    {"record", nullptr, "execution-driven run recorded to --out"},
    {"replay", "FILE", "replay into a rebuilt hierarchy: miss breakdown"},
    {"sweep", "FILE", "Figure 12/13 cache sweep"},
    {"sharing", "FILE", "Figure 16 shared-L2 what-if"},
};

std::vector<sim::Flag>
commandFlags(const std::string &cmd, Args &a)
{
    if (cmd == "timeline")
        return {{"limit", nullptr, "N", "annotations shown (100)",
                 sim::store(a.limit, 0)}};
    if (cmd == "record") {
        return {
            {"out", nullptr, "FILE", "trace file to write (required)",
             sim::store(a.out)},
            {"workload", nullptr, "specjbb|ecperf", "workload (specjbb)",
             [&a](const std::string &what, const std::string &text) {
                 if (text == "specjbb")
                     a.spec.workload = WorkloadKind::SpecJbb;
                 else if (text == "ecperf")
                     a.spec.workload = WorkloadKind::Ecperf;
                 else
                     fatal(what, ": unknown workload '", text, "'");
             }},
            {"app-cpus", nullptr, "N", "application CPUs (1)",
             sim::store(a.spec.appCpus, 1)},
            {"total-cpus", nullptr, "N", "machine CPUs (1)",
             sim::store(a.spec.totalCpus, 1)},
            {"cpus-per-l2", nullptr, "N", "CPUs sharing an L2",
             sim::store(a.spec.cpusPerL2, 1)},
            {"scale", nullptr, "N", "workload scale factor",
             sim::store(a.spec.scale, 1)},
            {"seed", nullptr, "N", "seed", sim::store(a.spec.seed, 0)},
            {"warmup", nullptr, "T", "warmup ticks (2000000)",
             sim::store(a.spec.warmup, 0)},
            {"measure", nullptr, "T", "measured ticks (4000000)",
             sim::store(a.spec.measure, 1)},
            {"track-comm", nullptr, nullptr,
             "track producer-consumer communication",
             sim::storeTrue(a.spec.trackCommunication)},
        };
    }
    if (cmd == "replay") {
        return {
            {"l2-kb", nullptr, "N", "L2 size in KB (as recorded)",
             [&a](const std::string &what, const std::string &text) {
                 a.overrides.l2SizeBytes =
                     sim::parseUnsigned(what, text, 1, 1u << 30) << 10;
             }},
            {"cpus-per-l2", nullptr, "N",
             "CPUs sharing an L2 (as recorded)",
             sim::store(a.overrides.cpusPerL2, 1)},
        };
    }
    return {};
}

/** Every command's flag table; --help prints it, usage errors too. */
void
printHelp(std::ostream &os)
{
    os << "usage: middlesim-trace <command> [flags] [FILE]\n";
    for (const Command &c : kCommands) {
        Args a;
        os << '\n' << c.name << ": " << c.help << '\n';
        sim::printUsage(os, std::string("middlesim-trace ") + c.name,
                        commandFlags(c.name, a), c.file);
    }
}

} // namespace

int
traceToolMain(int argc, char **argv)
{
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "--help") {
        printHelp(std::cout);
        return 0;
    }
    const Command *command = nullptr;
    for (const Command &c : kCommands) {
        if (cmd == c.name)
            command = &c;
    }
    if (!command) {
        printHelp(std::cerr);
        return 1;
    }

    Args a;
    const std::string tool = "middlesim-trace " + cmd;
    const std::string path = sim::parseFlags(
        tool, commandFlags(cmd, a), argc - 1, argv + 1, command->file);
    if (command->file && path.empty())
        fatal(tool, ": needs ", command->file, " (see --help)");

    if (cmd == "info")
        return cmdInfo(path);
    if (cmd == "validate")
        return cmdValidate(path);
    if (cmd == "timeline")
        return cmdTimeline(path, a.limit);
    if (cmd == "record")
        return cmdRecord(a.spec, a.out);
    if (cmd == "replay")
        return cmdReplay(path, a.overrides);
    if (cmd == "sweep")
        return cmdSweep(path);
    return cmdSharing(path);
}

} // namespace middlesim::core
