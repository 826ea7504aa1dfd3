/**
 * @file
 * The zero-overhead-when-off recording interface of the reference
 * trace subsystem.
 *
 * The paper's apparatus was a two-stage pipeline: the Simics
 * full-system simulator produced interleaved per-CPU reference
 * streams (including OS activity), and the Sumo memory simulator
 * consumed them. TraceSink is the seam that recreates that split
 * here. A sink is an AccessObserver: attached to a mem::Hierarchy it
 * is one of the hierarchy's taps and hears every reference as ref();
 * os::Scheduler and core::System call it directly for their own
 * annotations. When none is attached the cost is a single
 * predictable-not-taken branch per layer.
 *
 * Two record kinds flow through the sink:
 *  - ref(): every memory reference, in the exact global order the
 *    hierarchy processed it (the Systems here are single-threaded,
 *    so this order fully determines all hit/miss behavior), and
 *  - annotation(): sparse markers — GC/safepoint windows, execution
 *    mode switches, migrations, transaction boundaries, measurement
 *    and reset points — that let a replayer reproduce the measurement
 *    protocol and let tooling reconstruct a timeline.
 */

#ifndef MEM_TRACE_SINK_HH
#define MEM_TRACE_SINK_HH

#include <cstdint>

#include "mem/access_observer.hh"

namespace middlesim::mem
{

/** Receiver of a recorded reference stream (see file comment). */
class TraceSink : public AccessObserver
{
  public:
    /** A hierarchy tap hears each reference as ref(). */
    void
    preAccess(const MemRef &r, sim::Tick now) final
    {
        ref(r, now);
    }

    /** One memory reference, at simulated time `now`. */
    virtual void ref(const MemRef &ref, sim::Tick now) = 0;

    /** One sparse annotation record. */
    void annotation(TraceAnnotation kind, unsigned cpu, sim::Tick now,
                    std::uint64_t arg) override = 0;
};

} // namespace middlesim::mem

#endif // MEM_TRACE_SINK_HH
