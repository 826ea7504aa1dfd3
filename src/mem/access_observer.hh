/**
 * @file
 * The one tap on the reference stream.
 *
 * The paper's apparatus was one reference stream feeding several
 * consumers: Simics produced the interleaved per-CPU stream and Sumo
 * scored it, many cache sizes in one pass. AccessObserver is that seam
 * here. Everything that watches the stream — the trace writer
 * (mem::TraceSink), the multi-size cache sweep (mem::SweepSimulator)
 * and the invariant checker (check::MemChecker) — is a client of this
 * one interface, attached to a mem::Hierarchy's tap list.
 *
 * Hierarchy::access() tests the list once per reference: with no tap
 * attached that is a single predictable-not-taken branch. Taps hear
 * every reference before and after the hierarchy processes it, and
 * the hierarchy's own reset / invalidate points as annotations. A tap
 * may read any hierarchy state through the const inspection API
 * (l1iArray / l1dArray / l2Array / peekMeta) but must never mutate
 * the simulation: tapping a run leaves its results byte-identical.
 */

#ifndef MEM_ACCESS_OBSERVER_HH
#define MEM_ACCESS_OBSERVER_HH

#include <cstdint>

#include "mem/memref.hh"
#include "mem/stats.hh"
#include "sim/ticks.hh"

namespace middlesim::mem
{

/** Kinds of sparse annotation records on the reference stream. */
enum class TraceAnnotation : std::uint8_t
{
    /** System::beginMeasurement() — measured interval starts. */
    MeasureBegin = 0,
    /** Stop-the-world collection begins (cpu = collector CPU). */
    GcBegin,
    /** Minor collection ends (arg = pause cycles). */
    GcEndMinor,
    /** Major collection ends (arg = pause cycles). */
    GcEndMajor,
    /** Safepoint begins: application threads drain off the CPUs. */
    SafepointBegin,
    /** Safepoint ends. */
    SafepointEnd,
    /** Execution mode changed on a CPU (arg = exec::ExecMode). */
    ModeSwitch,
    /** Scheduler migrated a thread to `cpu` (arg = tid). */
    Migration,
    /** A transaction completed on `cpu` (arg = transaction type). */
    TxBoundary,
    /** Instruction count of the measured interval (arg = count). */
    Instructions,
    /** Hierarchy::resetStats() — per-CPU cache stats zeroed. */
    StatsReset,
    /** Hierarchy::resetRegionStats(). */
    RegionStatsReset,
    /** Hierarchy::resetCommunicationTracking(). */
    CommTrackReset,
    /** Hierarchy::invalidateAll(). */
    InvalidateAll,
};

/** Number of TraceAnnotation values (timeline/count tables). */
inline constexpr unsigned numTraceAnnotations = 14;

/** Stable display name of an annotation kind. */
inline const char *
traceAnnotationName(TraceAnnotation a)
{
    switch (a) {
      case TraceAnnotation::MeasureBegin:     return "measure.begin";
      case TraceAnnotation::GcBegin:          return "gc.begin";
      case TraceAnnotation::GcEndMinor:       return "gc.end.minor";
      case TraceAnnotation::GcEndMajor:       return "gc.end.major";
      case TraceAnnotation::SafepointBegin:   return "safepoint.begin";
      case TraceAnnotation::SafepointEnd:     return "safepoint.end";
      case TraceAnnotation::ModeSwitch:       return "mode.switch";
      case TraceAnnotation::Migration:        return "sched.migrate";
      case TraceAnnotation::TxBoundary:       return "tx.done";
      case TraceAnnotation::Instructions:     return "instructions";
      case TraceAnnotation::StatsReset:       return "reset.stats";
      case TraceAnnotation::RegionStatsReset: return "reset.regions";
      case TraceAnnotation::CommTrackReset:   return "reset.comm";
      case TraceAnnotation::InvalidateAll:    return "invalidate.all";
    }
    return "unknown";
}

/** A watcher of the reference stream (see file comment). */
class AccessObserver
{
  public:
    virtual ~AccessObserver() = default;

    /** Called before the hierarchy processes `ref`. */
    virtual void preAccess(const MemRef &, sim::Tick) {}

    /** Called after `ref` completed with result `res`. */
    virtual void
    postAccess(const MemRef &, const AccessResult &, sim::Tick)
    {
    }

    /** One sparse annotation record (hierarchy resets, GC, ...). */
    virtual void
    annotation(TraceAnnotation, unsigned, sim::Tick, std::uint64_t)
    {
    }
};

} // namespace middlesim::mem

#endif // MEM_ACCESS_OBSERVER_HH
