/**
 * @file
 * Metrics export: snapshot-time aggregation and the versioned
 * metrics JSON document.
 *
 * collectMetrics() is the one place that names metrics: it reads
 * every layer's plain counters (CPI stall buckets, execution modes,
 * cache/coherence/bus/directory counters, region miss attribution,
 * GC and allocation, workload transactions), the System's sampled
 * series and its event journal, and builds the MetricSnapshot. Which
 * families appear follows the machine: `mem.dir.*`/`mem.numa.*` only
 * with a directory, `mem.numa.mesh.*` only on a mesh, the contention
 * counters and `mem.dir.lat.*` only with home occupancy, `sys.*`
 * series only once sampled.
 * Figure harnesses attach one snapshot per (spec, seed) grid point
 * under a canonical point name; writeMetricsJson() serializes the
 * whole set as one schema-versioned document. All maps are sorted
 * and all numbers deterministically formatted, so the document is
 * byte-identical for any --jobs count.
 */

#ifndef CORE_METRICS_IO_HH
#define CORE_METRICS_IO_HH

#include <map>
#include <ostream>
#include <string>

#include "core/experiment.hh"
#include "sim/metrics.hh"

namespace middlesim::core
{

/** Schema identifier embedded in every metrics document. */
inline constexpr const char *metricsSchemaVersion =
    "middlesim-metrics-v1";

/**
 * Canonical name of a grid point: workload, machine shape, scale and
 * seed — unique per (spec, seed).
 */
std::string pointName(const ExperimentSpec &spec);

/**
 * Build the metric snapshot of `system`'s measured interval. Call
 * after the interval.
 */
sim::MetricSnapshot collectMetrics(System &system,
                                   const ExperimentSpec &spec,
                                   const BuiltWorkload &workload);

/** Named grid-point snapshots of one figure run (sorted by name). */
using MetricsMap = std::map<std::string, sim::MetricSnapshot>;

/**
 * Serialize `points` as the versioned metrics document:
 *   {"schema": ..., "figure": <id>, "points": {<name>: <snapshot>}}
 */
void writeMetricsJson(std::ostream &os, const std::string &figure,
                      const MetricsMap &points);

} // namespace middlesim::core

#endif // CORE_METRICS_IO_HH
