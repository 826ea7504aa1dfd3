/**
 * @file
 * middlesim_explore: exhaustive coherence-interleaving explorer.
 *
 * Enumerates every schedulable interleaving of a small-geometry
 * per-CPU reference stream (DPOR-pruned; the report's naive count is
 * computed, not enumerated) with all memory invariant checkers armed
 * on every path, and emits a `middlesim-explore-v1` JSON report. With
 * --inject=<fault> a deterministic mem::FaultPlan defect (period 1,
 * salt 0 unless overridden) is armed and MUST be found — not
 * probabilistically, but because some interleaving that triggers it
 * is guaranteed to be explored; the violating schedule is ddmin-shrunk
 * and written as a standard `.mst` repro replayable with
 * `middlesim_stress --repro=...` or `middlesim-trace replay`.
 *
 * Exit status: 0 = explored as expected (clean without --inject,
 * found with --inject); 1 = a real protocol bug (violation without
 * --inject), an injected defect the exploration missed, or bad usage.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "check/checker.hh"
#include "check/shrink.hh"
#include "explore/explorer.hh"
#include "mem/fault.hh"
#include "sim/log.hh"
#include "sim/parse.hh"
#include "sim/threadpool.hh"

using namespace middlesim;

namespace
{

struct Options
{
    unsigned cpus = 2;
    unsigned cpusPerL2 = 1;
    sim::CoherenceProtocol protocol = sim::CoherenceProtocol::SnoopBus;
    unsigned numaNodes = 1;
    sim::Topology topology = sim::Topology::Ring;
    unsigned dirOccupancy = 0;
    unsigned blocks = 2;
    /** Total references, dealt round-robin over the CPUs. */
    unsigned refs = 12;
    std::uint64_t seed = 1;
    unsigned depthBudget = 0;
    std::uint64_t maxExecutions = 0;
    unsigned jobs = 1;
    bool timing = false;
    mem::FaultPlan::Kind inject = mem::FaultPlan::Kind::None;
    std::uint64_t injectPeriod = 1;
    std::uint64_t injectSalt = 0;
    /** Directory for the minimized `.mst` repro ("" = don't write). */
    std::string out;
    /** JSON report path ("" = stdout). */
    std::string report;
};

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    sim::parseFlags("middlesim_explore", {
        {"cpus", nullptr, "N", "CPUs, 1-8 (2)", sim::store(opt.cpus, 1, 8)},
        {"cpus-per-l2", nullptr, "N", "CPUs sharing an L2 (1)",
         sim::store(opt.cpusPerL2, 1)},
        {"protocol", nullptr, "snoop|directory",
         "coherence protocol (snoop)",
         [&](const std::string &what, const std::string &text) {
             opt.protocol = sim::parseProtocol(what, text);
         }},
        {"numa-nodes", nullptr, "N", "NUMA nodes (directory only; 1)",
         sim::store(opt.numaNodes, 1)},
        {"topology", nullptr, "ring|mesh",
         "node interconnect (directory only; ring)",
         [&](const std::string &what, const std::string &text) {
             opt.topology = sim::parseTopology(what, text);
         }},
        {"dir-occupancy", nullptr, "N",
         "in-flight slots per directory home (0)",
         sim::store(opt.dirOccupancy, 0)},
        {"blocks", nullptr, "N", "distinct blocks referenced (2)",
         sim::store(opt.blocks, 1)},
        {"refs", nullptr, "N", "references, dealt round-robin (12)",
         sim::store(opt.refs, 0)},
        {"seed", nullptr, "N", "stream seed (1)", sim::store(opt.seed, 0)},
        {"depth-budget", nullptr, "N",
         "bound the explored depth (0 = none)",
         sim::store(opt.depthBudget, 0)},
        {"max-executions", nullptr, "N",
         "cap executions per branch (0 = none)",
         sim::store(opt.maxExecutions, 0)},
        {"jobs", nullptr, "N", "explorer threads (1)",
         sim::store(opt.jobs, 1, sim::ThreadPool::kMaxJobs)},
        {"timing", nullptr, nullptr, "report wall-clock seconds",
         sim::storeTrue(opt.timing)},
        {"inject", nullptr, "KIND", "arm a fault that must be found",
         [&](const std::string &what, const std::string &text) {
             opt.inject = mem::parseFaultKind(what, text);
         }},
        {"inject-period", nullptr, "N", "fault period (1)",
         sim::store(opt.injectPeriod, 1)},
        {"inject-salt", nullptr, "N", "fault salt (0)",
         sim::store(opt.injectSalt, 0)},
        {"out", nullptr, "DIR", "write the minimized .mst repro into DIR",
         sim::store(opt.out)},
        {"report", nullptr, "FILE", "JSON report path (stdout)",
         sim::store(opt.report)},
    }, argc, argv);
    if (opt.inject == mem::FaultPlan::Kind::DropInvalAck &&
        opt.protocol != sim::CoherenceProtocol::DirectoryMesi)
        fatal("middlesim_explore: --inject=drop-ack is a directory "
              "defect; add --protocol=directory");
    if (opt.inject == mem::FaultPlan::Kind::NackStorm &&
        opt.dirOccupancy == 0)
        fatal("middlesim_explore: --inject=nack-storm is a contended-"
              "home defect; add --protocol=directory "
              "--dir-occupancy=N (N >= 1)");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    check::setCheckingEnabled(false);

    const trace::TraceHeader header = explore::exploreHeader(
        opt.cpus, opt.cpusPerL2, opt.seed, opt.protocol,
        opt.numaNodes, opt.topology, opt.dirOccupancy);
    header.machine().validate();
    const explore::Streams streams =
        explore::makeStreams(opt.cpus, opt.blocks, opt.refs, opt.seed);

    mem::FaultPlan plan;
    const mem::FaultPlan *fault = nullptr;
    const bool inject = opt.inject != mem::FaultPlan::Kind::None;
    if (inject) {
        plan.kind = opt.inject;
        plan.period = opt.injectPeriod;
        plan.salt = opt.injectSalt;
        fault = &plan;
    }

    explore::ExploreOptions eopts;
    eopts.depthBudget = opt.depthBudget;
    eopts.jobs = opt.jobs;
    eopts.maxExecutionsPerBranch = opt.maxExecutions;

    const auto t0 = std::chrono::steady_clock::now();
    const explore::ExploreResult result =
        explore::explore(header, streams, fault, eopts);
    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();

    explore::ReportConfig rc;
    rc.cpus = opt.cpus;
    rc.cpusPerL2 = opt.cpusPerL2;
    rc.protocol = opt.protocol;
    rc.numaNodes = opt.numaNodes;
    rc.topology = opt.topology;
    rc.dirOccupancy = opt.dirOccupancy;
    rc.blocks = opt.blocks;
    rc.refs = opt.refs;
    rc.seed = opt.seed;
    rc.inject = mem::toString(opt.inject);
    rc.depthBudget = opt.depthBudget;
    if (opt.timing)
        rc.wallSeconds = wall;

    if (result.foundViolation && !opt.out.empty()) {
        check::ShrinkResult sr;
        sr.reproduced = true;
        sr.invariant = result.invariant;
        sr.records = result.repro;
        rc.reproPath =
            check::writeRepro(opt.out, opt.seed, header, sr);
        if (rc.reproPath.empty())
            warn("middlesim_explore: cannot write repro into '",
                 opt.out, "'");
    }

    const std::string json = explore::reportJson(result, rc);
    if (opt.report.empty()) {
        std::fputs(json.c_str(), stdout);
    } else {
        std::ofstream file(opt.report,
                           std::ios::binary | std::ios::trunc);
        file << json;
        file.flush();
        if (!file.good())
            fatal("middlesim_explore: cannot write report '",
                  opt.report, "'");
    }

    std::fprintf(
        stderr,
        "explore: %llu interleavings (naive %llu%s, %.3gx pruned) "
        "%llu refs checked in %.2f s%s\n",
        static_cast<unsigned long long>(result.stats.executions),
        static_cast<unsigned long long>(result.naive),
        result.naiveSaturated ? "+" : "",
        result.pruningRatio(),
        static_cast<unsigned long long>(result.stats.refsChecked),
        wall, result.stats.truncated ? " [TRUNCATED]" : "");
    if (result.foundViolation) {
        std::fprintf(
            stderr,
            "explore: VIOLATION %s (%s)\n"
            "explore: schedule %zu refs, repro %zu refs%s%s\n",
            result.invariant.c_str(), result.detail.c_str(),
            result.schedule.size(), result.repro.size(),
            rc.reproPath.empty() ? "" : " -> ",
            rc.reproPath.c_str());
        if (!rc.reproPath.empty() && inject) {
            std::fprintf(
                stderr,
                "explore: replay: middlesim_stress --repro=%s "
                "--inject=%s --inject-period=%llu "
                "--inject-salt=%llu\n",
                rc.reproPath.c_str(), mem::toString(opt.inject),
                static_cast<unsigned long long>(opt.injectPeriod),
                static_cast<unsigned long long>(opt.injectSalt));
        } else if (!rc.reproPath.empty()) {
            std::fprintf(stderr,
                         "explore: replay: middlesim_stress "
                         "--repro=%s\n",
                         rc.reproPath.c_str());
        }
    }

    if (inject && !result.foundViolation) {
        std::fprintf(stderr,
                     "explore: injected fault %s NOT found%s\n",
                     mem::toString(opt.inject),
                     result.stats.truncated
                         ? " (exploration truncated)"
                         : " — checker or explorer bug");
        return 1;
    }
    if (!inject && result.foundViolation)
        return 1;
    return 0;
}
