/**
 * @file
 * Metric value types: the frozen MetricSnapshot and the three
 * structures a layer keeps live values in when a plain counter is
 * not enough (the power-of-two HistogramMetric, the sampled
 * TimeSeries and the bounded EventJournal).
 *
 * Layers count in plain fields they own; core::collectMetrics()
 * (core/metrics_io.cc) is the one place that names counters, gauges,
 * histograms and series ("mem.coherence.invalidations") and builds
 * the snapshot. A MetricSnapshot is a sorted, plain-data view that
 * can be merged across runs (counters and histograms sum; gauges
 * sum, so keep them to totals or per-run values) and serialized to
 * the stable metrics JSON schema (see EXPERIMENTS.md). Because each
 * parallel grid point owns its System and snapshots are taken before
 * results are handed back, merged or serialized output is
 * byte-identical for any --jobs count.
 */

#ifndef SIM_METRICS_HH
#define SIM_METRICS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/ticks.hh"

namespace middlesim::sim
{

/**
 * Power-of-two bucketed sample distribution (bucket k holds values in
 * [2^k, 2^(k+1)); bucket 0 holds 0 and 1). Single-writer: histograms
 * belong to one simulated System and are not written concurrently.
 */
class HistogramMetric
{
  public:
    void add(std::uint64_t x, std::uint64_t weight = 1);

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }

    void reset();

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
};

/**
 * Fixed-period sampled values (one per `period` ticks). The System
 * drives sampling on window boundaries; probes are deterministic
 * functions of simulation state, so the series is reproducible.
 */
class TimeSeries
{
  public:
    explicit TimeSeries(Tick period = 0) : period_(period) {}

    void push(double v) { values_.push_back(v); }

    Tick period() const { return period_; }
    const std::vector<double> &values() const { return values_; }

    void reset() { values_.clear(); }

  private:
    Tick period_;
    std::vector<double> values_;
};

/**
 * Phase-annotated event journal: GC/safepoint windows, scheduler
 * migrations, workload phase transitions. Bounded: once `capacity`
 * events are retained further records only bump the dropped count,
 * so hot paths may journal freely.
 */
class EventJournal
{
  public:
    struct Event
    {
        Tick tick = 0;
        std::string type;
        std::string detail;
    };

    explicit EventJournal(std::size_t capacity = 4096)
        : capacity_(capacity)
    {
    }

    void record(Tick tick, std::string type, std::string detail = "");

    const std::vector<Event> &events() const { return events_; }
    std::uint64_t dropped() const { return dropped_; }
    std::size_t capacity() const { return capacity_; }

    void reset();

  private:
    std::size_t capacity_;
    std::vector<Event> events_;
    std::uint64_t dropped_ = 0;
};

/**
 * Frozen, plain-data view of one run's metrics: sorted by name,
 * mergeable, serializable. This is what travels from a grid-point
 * simulation back to the runner thread.
 */
struct MetricSnapshot
{
    struct HistogramData
    {
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        std::vector<std::uint64_t> buckets;
    };

    struct SeriesData
    {
        Tick period = 0;
        std::vector<double> values;
    };

    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramData> histograms;
    std::map<std::string, SeriesData> series;
    std::vector<EventJournal::Event> events;
    std::uint64_t eventsDropped = 0;

    /**
     * Accumulate `other`: counters, gauges, histogram buckets and
     * series bins sum (series of unequal length extend to the longer
     * one); events concatenate. Merging is commutative up to event
     * order, and exact for all numeric fields.
     */
    void merge(const MetricSnapshot &other);

    /**
     * Append this snapshot as a JSON object (stable field order,
     * deterministic number formatting). `indent` spaces prefix every
     * emitted line.
     */
    void writeJson(std::ostream &os, int indent = 0) const;
};

/** Deterministic shortest-round-trip formatting of a double. */
std::string formatDouble(double v);

/** JSON string escaping (control characters, quotes, backslash). */
std::string jsonEscape(const std::string &s);

} // namespace middlesim::sim

#endif // SIM_METRICS_HH
