#include "trace/replay.hh"

namespace middlesim::trace
{

std::unique_ptr<mem::Hierarchy>
hierarchyFor(const TraceHeader &header, const ReplayOverrides &overrides)
{
    sim::MachineConfig machine = header.machine();
    if (overrides.l2SizeBytes != 0)
        machine.l2.sizeBytes = overrides.l2SizeBytes;
    if (overrides.cpusPerL2 != 0)
        machine.cpusPerL2 = overrides.cpusPerL2;
    machine.validate();

    auto hierarchy = std::make_unique<mem::Hierarchy>(
        machine, header.latency, header.busContention);
    if (header.trackCommunication)
        hierarchy->setCommunicationTracking(true);
    for (const TraceRegion &region : header.regions)
        hierarchy->defineRegion(region.name, region.base, region.bytes);
    return hierarchy;
}

ReplayCounts
replayTraceFanout(TraceReader &reader,
                  const std::vector<mem::Hierarchy *> &hierarchies,
                  mem::AccessObserver *tap)
{
    ReplayCounts counts;
    TraceRecord rec;
    while (reader.next(rec)) {
        counts.lastTick = rec.tick;
        if (rec.isRef) {
            ++counts.refs;
            for (mem::Hierarchy *hierarchy : hierarchies)
                hierarchy->access(rec.ref, rec.tick);
            if (tap)
                tap->preAccess(rec.ref, rec.tick);
            continue;
        }
        ++counts.annotations;
        if (tap)
            tap->annotation(rec.kind, rec.ref.cpu, rec.tick, rec.arg);
        switch (rec.kind) {
          case mem::TraceAnnotation::MeasureBegin:
            counts.sawMeasureBegin = true;
            counts.measureTick = rec.tick;
            break;
          case mem::TraceAnnotation::StatsReset:
            for (mem::Hierarchy *hierarchy : hierarchies)
                hierarchy->resetStats();
            break;
          case mem::TraceAnnotation::RegionStatsReset:
            for (mem::Hierarchy *hierarchy : hierarchies)
                hierarchy->resetRegionStats();
            break;
          case mem::TraceAnnotation::CommTrackReset:
            for (mem::Hierarchy *hierarchy : hierarchies)
                hierarchy->resetCommunicationTracking();
            break;
          case mem::TraceAnnotation::InvalidateAll:
            for (mem::Hierarchy *hierarchy : hierarchies)
                hierarchy->invalidateAll();
            break;
          case mem::TraceAnnotation::Instructions:
            counts.instructions += rec.arg;
            break;
          default:
            // GC windows, mode switches, migrations and transaction
            // boundaries are timeline metadata: they do not affect
            // memory-system state.
            break;
        }
    }
    return counts;
}

ReplayCounts
replayTrace(TraceReader &reader, mem::Hierarchy *hierarchy,
            mem::AccessObserver *tap)
{
    std::vector<mem::Hierarchy *> hierarchies;
    if (hierarchy)
        hierarchies.push_back(hierarchy);
    return replayTraceFanout(reader, hierarchies, tap);
}

} // namespace middlesim::trace
