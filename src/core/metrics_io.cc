#include "core/metrics_io.hh"

namespace middlesim::core
{

std::string
pointName(const ExperimentSpec &spec)
{
    std::string name =
        spec.workload == WorkloadKind::SpecJbb ? "jbb" : "ecperf";
    name += "/app=" + std::to_string(spec.appCpus);
    name += "/total=" + std::to_string(spec.totalCpus);
    name += "/l2x" + std::to_string(spec.cpusPerL2);
    name += "/scale=" + std::to_string(spec.resolvedScale());
    // Non-default protocol/topology only, so every point name of the
    // existing snooping-bus corpus is unchanged.
    if (spec.protocol != sim::CoherenceProtocol::SnoopBus)
        name += std::string("/") + sim::toString(spec.protocol);
    if (spec.numaNodes != 1)
        name += "/numa=" + std::to_string(spec.numaNodes);
    if (spec.topology != sim::Topology::Ring)
        name += std::string("/") + sim::toString(spec.topology);
    if (spec.dirOccupancy != 0)
        name += "/occ=" + std::to_string(spec.dirOccupancy);
    name += "/seed=" + std::to_string(spec.seed);
    return name;
}

namespace
{

void
exportCpi(sim::MetricSnapshot &snap, const std::string &prefix,
          const cpu::CpiBreakdown &cpi)
{
    auto &c = snap.counters;
    c[prefix + ".instructions"] = cpi.instructions;
    c[prefix + ".cycles.base"] = cpi.base;
    c[prefix + ".cycles.istall"] = cpi.iStall;
    c[prefix + ".cycles.ds_storebuf"] = cpi.dsStoreBuf;
    c[prefix + ".cycles.ds_raw"] = cpi.dsRaw;
    c[prefix + ".cycles.ds_l2hit"] = cpi.dsL2Hit;
    c[prefix + ".cycles.ds_c2c"] = cpi.dsC2C;
    c[prefix + ".cycles.ds_memory"] = cpi.dsMemory;
    c[prefix + ".cycles.ds_other"] = cpi.dsOther;
    snap.gauges[prefix + ".cpi"] = cpi.cpi();
}

void
exportModes(sim::MetricSnapshot &snap, const std::string &prefix,
            const os::ModeBreakdown &modes)
{
    auto &c = snap.counters;
    c[prefix + ".user"] = modes.user;
    c[prefix + ".system"] = modes.system;
    c[prefix + ".io"] = modes.io;
    c[prefix + ".idle"] = modes.idle;
    c[prefix + ".gc_idle"] = modes.gcIdle;
}

void
exportCache(sim::MetricSnapshot &snap, const std::string &prefix,
            const mem::CacheStats &st)
{
    auto &c = snap.counters;
    c[prefix + ".ifetches"] = st.ifetches;
    c[prefix + ".loads"] = st.loads;
    c[prefix + ".stores"] = st.stores;
    c[prefix + ".atomics"] = st.atomics;
    c[prefix + ".l1i_hits"] = st.l1iHits;
    c[prefix + ".l1d_hits"] = st.l1dHits;
    c[prefix + ".l2_accesses"] = st.l2Accesses;
    c[prefix + ".l2_hits"] = st.l2Hits;
    c[prefix + ".miss_cold"] = st.missCold;
    c[prefix + ".miss_coherence"] = st.missCoherence;
    c[prefix + ".miss_capacity"] = st.missCapacity;
    c[prefix + ".c2c_transfers"] = st.c2cTransfers;
    c[prefix + ".upgrades"] = st.upgrades;
    c[prefix + ".writebacks"] = st.writebacks;
    c[prefix + ".block_stores"] = st.blockStores;
    c[prefix + ".instr_misses"] = st.instrMisses;
    c[prefix + ".data_misses"] = st.dataMisses;
}

/**
 * The directory plane's counters: message and NUMA counts on every
 * directory machine, the per-axis hop split on a mesh, the
 * contention counters and latency CDF only when home occupancy is
 * modelled.
 */
void
exportDirectory(sim::MetricSnapshot &snap,
                const mem::DirectoryController &dir,
                const sim::MachineConfig &machine)
{
    const mem::DirectoryStats &d = dir.stats();
    auto &c = snap.counters;
    c["mem.dir.get_s"] = d.getS;
    c["mem.dir.get_m"] = d.getM;
    c["mem.dir.upgrades"] = d.upgrades;
    c["mem.dir.forwards"] = d.forwards;
    c["mem.dir.invalidations_sent"] = d.invalidationsSent;
    c["mem.dir.acks_received"] = d.acksReceived;
    c["mem.dir.writebacks_home"] = d.writebacksToHome;
    c["mem.dir.put_notices"] = d.putNotices;
    c["mem.numa.local_misses"] = d.localMisses;
    c["mem.numa.remote_misses"] = d.remoteMisses;
    c["mem.numa.hops"] = d.hops;
    if (machine.topology == sim::Topology::Mesh) {
        c["mem.numa.mesh.x_hops"] = d.meshXHops;
        c["mem.numa.mesh.y_hops"] = d.meshYHops;
    }
    if (!dir.contended())
        return;
    c["mem.dir.nacks"] = d.nacks;
    c["mem.dir.retries"] = d.retries;
    c["mem.dir.livelock_breaks"] = d.livelockBreaks;
    c["mem.dir.occupancy_busy_cycles"] = d.occupancyBusyCycles;
    c["mem.dir.occupancy_queue_delay"] = d.occupancyQueueDelay;
    c["mem.numa.link.busy_cycles"] = d.linkBusyCycles;
    c["mem.numa.link.queue_delay"] = d.linkQueueDelay;
    for (unsigned b = 0; b < mem::kDirLatBuckets; ++b)
        c[mem::kDirLatBucketNames[b]] = d.latBuckets[b];
}

} // namespace

sim::MetricSnapshot
collectMetrics(System &system, const ExperimentSpec &spec,
               const BuiltWorkload &workload)
{
    sim::MetricSnapshot snap;
    auto &c = snap.counters;
    auto &g = snap.gauges;

    exportCpi(snap, "cpu.app", system.appCpi());
    exportModes(snap, "os.modes.app", system.appModes());
    exportModes(snap, "os.modes.all", system.scheduler().allModes());
    c["os.sched.context_switches"] =
        system.scheduler().contextSwitches();
    c["os.sched.migrations"] = system.scheduler().migrations();
    exportCache(snap, "mem.app", system.appCacheStats());
    exportCache(snap, "mem.all", system.memory().aggregateAll());

    const mem::CoherenceStats &coh = system.memory().coherenceStats();
    c["mem.coherence.invalidations"] = coh.invalidations;
    c["mem.coherence.l1_back_invalidations"] = coh.l1BackInvalidations;
    c["mem.coherence.copybacks_supplied"] = coh.copybacksSupplied;

    const mem::Bus &bus = system.memory().bus();
    c["mem.bus.transactions"] = bus.transactions();
    c["mem.bus.busy_cycles"] = bus.busyCycles();
    c["mem.bus.queue_delay"] = bus.totalQueueDelay();

    if (const mem::DirectoryController *dir = system.memory().directory())
        exportDirectory(snap, *dir, system.memory().config());

    for (const auto &region : system.memory().regions()) {
        const std::string prefix = "mem.region." + region.name;
        c[prefix + ".miss_cold"] = region.missCold;
        c[prefix + ".miss_coherence"] = region.missCoherence;
        c[prefix + ".miss_capacity"] = region.missCapacity;
    }

    const jvm::Jvm::Stats &gc = system.vm().stats();
    c["jvm.gc.minor"] = gc.minorCollections;
    c["jvm.gc.major"] = gc.majorCollections;
    c["jvm.gc.pause_cycles"] = gc.totalPause;
    c["jvm.alloc.bytes"] = gc.allocBytes;
    c["jvm.tlab.refills"] = gc.tlabRefills;
    snap.histograms["jvm.gc.pause_kcycles"] = {
        gc.pauseKcycles.count(), gc.pauseKcycles.sum(),
        gc.pauseKcycles.buckets()};
    g["jvm.heap.old_used_mb"] =
        static_cast<double>(system.vm().heap().oldUsed()) /
        (1024.0 * 1024.0);

    const unsigned num_types =
        spec.workload == WorkloadKind::SpecJbb
            ? workload::jbbNumTxTypes
            : workload::ecperfNumTxTypes;
    for (unsigned t = 0; t < num_types; ++t)
        c["workload.tx.type" + std::to_string(t)] = system.txCount(t);
    c["workload.tx.total"] = system.txTotal();
    g["workload.throughput"] = system.throughput();
    if (workload.ecperf) {
        const auto &bc = workload.ecperf->beanCache();
        c["workload.beancache.hits"] = bc.hits();
        c["workload.beancache.misses"] = bc.misses();
        c["workload.beancache.evictions"] = bc.evictions();
        g["workload.beancache.hit_rate"] = bc.hitRate();
    }
    if (workload.jbb) {
        c["workload.jbb.outstanding_orders"] =
            workload.jbb->outstandingOrders();
    }

    g["sys.measured_seconds"] = system.measuredSeconds();

    const SampledSeries &series = system.series();
    if (series.sampled) {
        const auto add = [&](const char *name, const sim::TimeSeries &s) {
            snap.series[name] = {s.period(), s.values()};
        };
        add("sys.heap.young_used_mb", series.youngUsedMb);
        add("sys.heap.old_used_mb", series.oldUsedMb);
        add("sys.sched.runnable", series.runnable);
    }

    snap.events = system.journal().events();
    snap.eventsDropped = system.journal().dropped();
    return snap;
}

void
writeMetricsJson(std::ostream &os, const std::string &figure,
                 const MetricsMap &points)
{
    os << "{\n  \"schema\": \"" << metricsSchemaVersion
       << "\",\n  \"figure\": \"" << sim::jsonEscape(figure)
       << "\",\n  \"points\": {";
    bool first = true;
    for (const auto &[name, snap] : points) {
        os << (first ? "\n" : ",\n") << "    \""
           << sim::jsonEscape(name) << "\":\n";
        snap.writeJson(os, 4);
        first = false;
    }
    if (!first)
        os << '\n' << "  ";
    os << "}\n}\n";
}

} // namespace middlesim::core
