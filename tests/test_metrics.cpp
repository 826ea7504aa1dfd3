/**
 * @file
 * Unit tests for the observability layer: histogram bucketing,
 * journal bounding, snapshot merge arithmetic, the deterministic JSON
 * serialization, and which metric families a machine reports.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "sim/metrics.hh"

using namespace middlesim::sim;

namespace
{

/** Snapshot form of a histogram holding the given samples. */
MetricSnapshot::HistogramData
histogramOf(std::initializer_list<std::uint64_t> samples)
{
    HistogramMetric h;
    for (std::uint64_t x : samples)
        h.add(x);
    return {h.count(), h.sum(), h.buckets()};
}

} // namespace

TEST(HistogramMetric, EmptyHasNoBucketsOrSamples)
{
    HistogramMetric h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_TRUE(h.buckets().empty());
}

TEST(HistogramMetric, SingleSampleLandsInOneBucket)
{
    HistogramMetric h;
    h.add(6); // [4, 8) -> bucket 2
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.sum(), 6u);
    ASSERT_EQ(h.buckets().size(), 3u);
    EXPECT_EQ(h.buckets()[0], 0u);
    EXPECT_EQ(h.buckets()[1], 0u);
    EXPECT_EQ(h.buckets()[2], 1u);
}

TEST(HistogramMetric, ZeroAndOneShareBucketZero)
{
    HistogramMetric h;
    h.add(0);
    h.add(1);
    ASSERT_EQ(h.buckets().size(), 1u);
    EXPECT_EQ(h.buckets()[0], 2u);
}

TEST(HistogramMetric, HugeSampleGetsTopBucketWithoutOverflow)
{
    HistogramMetric h;
    const std::uint64_t huge = ~0ULL; // 2^64 - 1 -> bucket 63
    h.add(huge);
    ASSERT_EQ(h.buckets().size(), 64u);
    EXPECT_EQ(h.buckets()[63], 1u);
    EXPECT_EQ(h.sum(), huge);
}

TEST(HistogramMetric, WeightedAddAndReset)
{
    HistogramMetric h;
    h.add(3, 5);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 15u);
    ASSERT_EQ(h.buckets().size(), 2u);
    EXPECT_EQ(h.buckets()[1], 5u);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_TRUE(h.buckets().empty());
}

TEST(EventJournal, CapsRetainedEventsAndCountsDrops)
{
    EventJournal j(3);
    for (int i = 0; i < 5; ++i)
        j.record(i * 100, "tick", std::to_string(i));
    ASSERT_EQ(j.events().size(), 3u);
    EXPECT_EQ(j.dropped(), 2u);
    EXPECT_EQ(j.events()[0].detail, "0");
    EXPECT_EQ(j.events()[2].detail, "2");
    j.reset();
    EXPECT_TRUE(j.events().empty());
    EXPECT_EQ(j.dropped(), 0u);
}

TEST(MetricSnapshot, MergeSumsAndConcatenates)
{
    MetricSnapshot m;
    m.counters["n"] = 3;
    m.gauges["g"] = 1.5;
    m.histograms["h"] = histogramOf({2});
    m.series["s"] = {100, {1.0}};
    m.events.push_back({1, "e", "a"});

    MetricSnapshot b;
    b.counters["n"] = 4;
    b.counters["only_b"] = 9;
    b.gauges["g"] = 2.5;
    b.histograms["h"] = histogramOf({70}); // longer bucket vector
    b.series["s"] = {100, {2.0, 3.0}};
    b.events.push_back({2, "e", "b"});

    m.merge(b);

    EXPECT_EQ(m.counters.at("n"), 7u);
    EXPECT_EQ(m.counters.at("only_b"), 9u);
    EXPECT_DOUBLE_EQ(m.gauges.at("g"), 4.0);
    EXPECT_EQ(m.histograms.at("h").count, 2u);
    EXPECT_EQ(m.histograms.at("h").sum, 72u);
    ASSERT_EQ(m.histograms.at("h").buckets.size(), 7u);
    EXPECT_EQ(m.histograms.at("h").buckets[1], 1u);
    EXPECT_EQ(m.histograms.at("h").buckets[6], 1u);
    ASSERT_EQ(m.series.at("s").values.size(), 2u);
    EXPECT_DOUBLE_EQ(m.series.at("s").values[0], 3.0);
    EXPECT_DOUBLE_EQ(m.series.at("s").values[1], 3.0);
    ASSERT_EQ(m.events.size(), 2u);
}

TEST(MetricSnapshot, MergeIsOrderIndependentForNumerics)
{
    MetricSnapshot a;
    a.counters["n"] = 3;
    a.histograms["h"] = histogramOf({5});
    MetricSnapshot b;
    b.counters["n"] = 11;
    b.histograms["h"] = histogramOf({900});

    MetricSnapshot ab = a;
    ab.merge(b);
    MetricSnapshot ba = b;
    ba.merge(a);

    EXPECT_EQ(ab.counters, ba.counters);
    EXPECT_EQ(ab.histograms.at("h").count, ba.histograms.at("h").count);
    EXPECT_EQ(ab.histograms.at("h").buckets,
              ba.histograms.at("h").buckets);
}

TEST(MetricsJson, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(MetricsJson, FormatDoubleRoundTrips)
{
    const double cases[] = {0.0,     1.0,        -1.5,     0.1,
                            1.0 / 3, 1e-12,      3.25e17,  42.0,
                            2.5,     0.30000001, 123456.75};
    for (double v : cases) {
        const std::string s = formatDouble(v);
        double back = 0.0;
        ASSERT_EQ(std::sscanf(s.c_str(), "%lf", &back), 1) << s;
        EXPECT_EQ(back, v) << "formatDouble(" << v << ") = " << s;
    }
}

TEST(MetricsJson, SerializationIsDeterministic)
{
    auto build = [] {
        MetricSnapshot snap;
        // Insert in scrambled order; output must still be sorted.
        snap.counters["z.last"] = 2;
        snap.counters["a.first"] = 1;
        snap.gauges["m.mid"] = 0.125;
        snap.histograms["h.dist"] = histogramOf({17});
        snap.series["t.line"] = {250, {3.5}};
        snap.events.push_back({9, "evt", "x=\"1\""});
        return snap;
    };
    std::ostringstream s1, s2;
    build().writeJson(s1, 2);
    build().writeJson(s2, 2);
    EXPECT_EQ(s1.str(), s2.str());
    // Sorted keys: "a.first" precedes "z.last" in the emitted text.
    const std::string text = s1.str();
    EXPECT_LT(text.find("a.first"), text.find("z.last"));
    EXPECT_NE(text.find("\\\"1\\\""), std::string::npos);
}

namespace
{

/** Snapshot of a tiny SPECjbb run on the given machine. */
MetricSnapshot
tinyRunMetrics(middlesim::sim::CoherenceProtocol protocol,
               unsigned numa_nodes, middlesim::sim::Topology topology,
               unsigned occupancy)
{
    namespace core = middlesim::core;
    core::ExperimentSpec spec;
    spec.appCpus = 4;
    spec.totalCpus = 4;
    spec.protocol = protocol;
    spec.numaNodes = numa_nodes;
    spec.topology = topology;
    spec.dirOccupancy = occupancy;
    spec.warmup = 1'000'000;
    spec.measure = 3'000'000;
    spec.seed = 5;
    core::BuiltWorkload workload;
    auto system = core::buildSystem(spec, workload);
    return *core::measure(*system, spec, workload).metrics;
}

bool
hasCounterPrefix(const MetricSnapshot &snap, const std::string &prefix)
{
    const auto it = snap.counters.lower_bound(prefix);
    return it != snap.counters.end() &&
           it->first.compare(0, prefix.size(), prefix) == 0;
}

} // namespace

TEST(Metrics, SnapshotNamesFollowTheMachine)
{
    using middlesim::sim::CoherenceProtocol;
    using middlesim::sim::Topology;

    const MetricSnapshot snoop =
        tinyRunMetrics(CoherenceProtocol::SnoopBus, 1, Topology::Ring, 0);
    EXPECT_FALSE(hasCounterPrefix(snoop, "mem.dir."));
    EXPECT_FALSE(hasCounterPrefix(snoop, "mem.numa."));
    // Families every machine reports.
    EXPECT_GT(snoop.counters.count("mem.coherence.invalidations"), 0u);
    EXPECT_GT(snoop.counters.count("os.sched.migrations"), 0u);
    EXPECT_GT(snoop.counters.count("jvm.alloc.bytes"), 0u);
    EXPECT_GT(snoop.counters.at("cpu.app.instructions"), 0u);
    EXPECT_GT(snoop.histograms.count("jvm.gc.pause_kcycles"), 0u);
    EXPECT_GT(snoop.series.count("sys.heap.old_used_mb"), 0u);

    const MetricSnapshot ring = tinyRunMetrics(
        CoherenceProtocol::DirectoryMesi, 2, Topology::Ring, 0);
    EXPECT_GT(ring.counters.at("mem.dir.get_s"), 0u);
    EXPECT_GT(ring.counters.count("mem.numa.hops"), 0u);
    EXPECT_EQ(ring.counters.count("mem.dir.nacks"), 0u);
    EXPECT_FALSE(hasCounterPrefix(ring, "mem.numa.mesh."));
    EXPECT_FALSE(hasCounterPrefix(ring, "mem.dir.lat."));
    EXPECT_FALSE(hasCounterPrefix(ring, "mem.numa.link."));

    const MetricSnapshot mesh = tinyRunMetrics(
        CoherenceProtocol::DirectoryMesi, 4, Topology::Mesh, 2);
    EXPECT_GT(mesh.counters.at("mem.dir.get_s"), 0u);
    EXPECT_GT(mesh.counters.count("mem.dir.nacks"), 0u);
    EXPECT_GT(mesh.counters.count("mem.dir.livelock_breaks"), 0u);
    EXPECT_GT(mesh.counters.at("mem.numa.mesh.x_hops") +
                  mesh.counters.at("mem.numa.mesh.y_hops"),
              0u);
    EXPECT_GT(mesh.counters.at("mem.numa.link.busy_cycles"), 0u);
    std::uint64_t lat_total = 0;
    for (const char *name : middlesim::mem::kDirLatBucketNames)
        lat_total += mesh.counters.at(name);
    EXPECT_GT(lat_total, 0u);
}
