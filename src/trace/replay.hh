/**
 * @file
 * TraceReplayer: drive recorded reference streams into memory-system
 * frontends without constructing CPU/OS/JVM/workload layers.
 *
 * This is the Sumo half of the paper's pipeline. Replay feeds each
 * recorded reference — in its original global order — into
 * mem::Hierarchy instances and/or one reference-stream tap (a
 * mem::AccessObserver such as the mem::SweepSimulator), and
 * re-executes the measurement protocol from the recorded annotations:
 * hierarchies apply the stats / region / communication-tracking
 * resets and invalidations, and the tap hears every annotation. Because every System is single-threaded and all hit/miss
 * behavior depends only on access order (never on latency), replaying
 * against an identically-configured hierarchy reproduces bit-identical
 * miss counts, classifications and footprints; replaying against a
 * *different* geometry answers what-if questions at a fraction of the
 * execution-driven cost.
 */

#ifndef TRACE_REPLAY_HH
#define TRACE_REPLAY_HH

#include <array>
#include <cstdint>
#include <vector>

#include "mem/hierarchy.hh"
#include "trace/reader.hh"

namespace middlesim::trace
{

/** Summary of one replay pass. */
struct ReplayCounts
{
    std::uint64_t refs = 0;
    std::uint64_t annotations = 0;
    /** Measured-interval instruction count (Instructions records). */
    std::uint64_t instructions = 0;
    /** Tick of the MeasureBegin mark (0 if none seen). */
    sim::Tick measureTick = 0;
    bool sawMeasureBegin = false;
    /** Tick of the last decoded record. */
    sim::Tick lastTick = 0;
};

/**
 * Geometry overrides for what-if replay. Zero-valued fields keep the
 * recorded configuration.
 */
struct ReplayOverrides
{
    /** Override L2 capacity (bytes). */
    std::uint64_t l2SizeBytes = 0;
    /** Override the number of CPUs sharing each L2 (Figure 16). */
    unsigned cpusPerL2 = 0;
};

/**
 * Build a hierarchy matching the trace header (plus overrides), with
 * the recorded regions defined and communication tracking restored.
 */
std::unique_ptr<mem::Hierarchy>
hierarchyFor(const TraceHeader &header,
             const ReplayOverrides &overrides = {});

/**
 * Replay every remaining record of `reader` into the given frontends
 * (either may be nullptr). Check reader.complete() afterwards: a
 * trace that fails validation mid-stream yields partial state that
 * must be discarded.
 */
ReplayCounts replayTrace(TraceReader &reader, mem::Hierarchy *hierarchy,
                         mem::AccessObserver *tap);

/**
 * Single-pass fan-out replay: decode the stream once and feed every
 * record to each hierarchy and, when non-null, to `tap` (references
 * as preAccess, annotations as annotation). Each
 * hierarchy evolves exactly as it would under its own replayTrace()
 * pass — the frontends never interact — so per-hierarchy state is
 * bit-identical to N separate replays at one decode cost. This is
 * what makes the Figure 16 sharing-degree study single-pass: one SMP
 * recording, one decode, every sharing degree at once.
 */
ReplayCounts
replayTraceFanout(TraceReader &reader,
                  const std::vector<mem::Hierarchy *> &hierarchies,
                  mem::AccessObserver *tap = nullptr);

} // namespace middlesim::trace

#endif // TRACE_REPLAY_HH
