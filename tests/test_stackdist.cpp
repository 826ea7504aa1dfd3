/**
 * @file
 * Stack/reuse-distance engine tests: Fenwick primitive, exact
 * equivalence of the single-pass engines against the naive
 * per-configuration CacheArray walk across randomized geometries and
 * streams, and critical-histogram invariants.
 *
 * The randomized passes reuse the seeded stress RNG (sim::Rng) so
 * every failure is reproducible from the printed seed. Set
 * MIDDLESIM_DEEP_SWEEP=1 (the nightly workflow does) for a deeper
 * pass: more geometries per trial, longer streams, more trials.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "mem/stackdist/fenwick.hh"
#include "mem/stackdist/refinement.hh"
#include "mem/stackdist/reuse.hh"
#include "mem/sweep.hh"
#include "sim/rng.hh"
#include "sweep_oracle.hh"

using namespace middlesim;
using mem::AccessType;
using mem::SweepSimulator;
using test::NaiveBank;
using test::nextRef;

namespace
{

bool
deepSweep()
{
    const char *env = std::getenv("MIDDLESIM_DEEP_SWEEP");
    return env && *env != '\0' && *env != '0';
}

/** Random single-pass-suitable geometry list (common block size). */
std::vector<sim::CacheParams>
randomGeometries(sim::Rng &rng)
{
    const unsigned block = 32u << rng.uniform(3); // 32/64/128
    const std::size_t count = 1 + rng.uniform(4);
    std::vector<sim::CacheParams> configs;
    for (std::size_t i = 0; i < count; ++i) {
        const unsigned assoc =
            static_cast<unsigned>(1 + rng.uniform(8));
        const std::uint64_t sets = std::uint64_t{1} << rng.uniform(8);
        configs.push_back(
            {sets * assoc * block, assoc, block});
    }
    return configs;
}

} // namespace

TEST(Fenwick, MatchesNaivePrefixSums)
{
    // Exercise the tracker's actual usage: 0/1 marks toggled per
    // slot (per-position counts never go negative).
    sim::Rng rng(0xF3EDu);
    mem::stackdist::Fenwick tree(64);
    std::vector<std::uint32_t> naive(64, 0);
    for (int step = 0; step < 2000; ++step) {
        const std::size_t i = rng.uniform(64);
        if (naive[i]) {
            tree.add(i, -1);
            naive[i] = 0;
        } else {
            tree.add(i, 1);
            naive[i] = 1;
        }
        const std::size_t q = rng.uniform(64);
        std::uint64_t expect = 0;
        for (std::size_t k = 0; k <= q; ++k)
            expect += naive[k];
        ASSERT_EQ(tree.prefix(q), expect) << "step " << step;
    }
}

TEST(Fenwick, ClearAndResetDiscardCounts)
{
    mem::stackdist::Fenwick tree(8);
    tree.add(3, 5);
    EXPECT_EQ(tree.prefix(7), 5u);
    tree.clear();
    EXPECT_EQ(tree.prefix(7), 0u);
    EXPECT_EQ(tree.size(), 8u);
    tree.reset(16);
    EXPECT_EQ(tree.size(), 16u);
    EXPECT_EQ(tree.prefix(15), 0u);
}

TEST(ReuseDistance, MatchesNaiveFullyAssociativeLadder)
{
    // Capacities in blocks; fully-associative CacheArray reference.
    const std::vector<std::uint64_t> caps = {4, 16, 64, 256};
    std::vector<sim::CacheParams> configs;
    for (std::uint64_t c : caps)
        configs.push_back({c * 64, static_cast<unsigned>(c), 64});

    mem::stackdist::ReuseDistanceTracker tracker(caps, 64);
    NaiveBank naive(configs);
    sim::Rng rng(0xD15Cu);
    mem::Addr cursor = 0;
    const int steps = deepSweep() ? 60000 : 15000;
    for (int step = 0; step < steps; ++step) {
        const mem::MemRef ref = nextRef(rng, cursor);
        const bool count = ref.type != AccessType::BlockStore;
        tracker.access(ref.addr, count);
        naive.access(ref.addr, count);
    }
    ASSERT_EQ(tracker.accesses(), naive.accesses);
    for (std::size_t i = 0; i < caps.size(); ++i)
        EXPECT_EQ(tracker.misses(i), naive.misses[i]) << "cap " << i;
}

TEST(ReuseDistance, SurvivesSlotCompaction)
{
    // Every access consumes a slot, so > kInitialSlots accesses force
    // at least one compaction; counts must be unaffected.
    const std::vector<std::uint64_t> caps = {8, 128};
    std::vector<sim::CacheParams> configs;
    for (std::uint64_t c : caps)
        configs.push_back({c * 64, static_cast<unsigned>(c), 64});

    mem::stackdist::ReuseDistanceTracker tracker(caps, 64);
    NaiveBank naive(configs);
    sim::Rng rng(0xC0DAu);
    mem::Addr cursor = 0;
    for (int step = 0; step < (1 << 17); ++step) {
        const mem::MemRef ref = nextRef(rng, cursor);
        tracker.access(ref.addr, true);
        naive.access(ref.addr, true);
    }
    for (std::size_t i = 0; i < caps.size(); ++i)
        EXPECT_EQ(tracker.misses(i), naive.misses[i]) << "cap " << i;
}

TEST(ReuseDistance, BlockStoreInstallsWithoutCounting)
{
    mem::stackdist::ReuseDistanceTracker tracker({4}, 64);
    tracker.access(0x1000, /*count_miss=*/false); // cold install
    EXPECT_EQ(tracker.accesses(), 1u);
    EXPECT_EQ(tracker.misses(0), 0u);
    EXPECT_EQ(tracker.coldMisses(), 0u);
    tracker.access(0x1000, /*count_miss=*/true); // now resident: hit
    EXPECT_EQ(tracker.misses(0), 0u);
    tracker.access(0x2000, /*count_miss=*/true); // genuinely cold
    EXPECT_EQ(tracker.misses(0), 1u);
}

TEST(ReuseDistance, ResetCountersKeepsStackAndMemo)
{
    mem::stackdist::ReuseDistanceTracker tracker({4}, 64);
    tracker.access(0x1000, true);
    tracker.access(0x2000, true);
    tracker.resetCounters();
    EXPECT_EQ(tracker.accesses(), 0u);
    EXPECT_EQ(tracker.misses(0), 0u);
    // Post-reset repeat of the pre-reset block: counted, not a miss.
    tracker.access(0x2000, true);
    EXPECT_EQ(tracker.accesses(), 1u);
    EXPECT_EQ(tracker.misses(0), 0u);
    tracker.access(0x1000, true);
    EXPECT_EQ(tracker.misses(0), 0u);
}

TEST(Refinement, MatchesNaiveAcrossRandomGeometries)
{
    // Satellite 3: ≥50 random geometry trials, both banks, clustered
    // streams, exact equality against the naive CacheArray walk.
    const int trials = deepSweep() ? 300 : 60;
    const int steps = deepSweep() ? 12000 : 4000;
    for (int trial = 0; trial < trials; ++trial) {
        sim::Rng rng(0x5EED0000u + static_cast<std::uint64_t>(trial));
        const auto configs = randomGeometries(rng);
        ASSERT_TRUE(
            mem::stackdist::RefinementSweep::suitable(configs));

        SweepSimulator sweep(configs);
        NaiveBank inaive(configs), dnaive(configs);
        mem::Addr cursor = 0;
        for (int step = 0; step < steps; ++step) {
            const mem::MemRef ref = nextRef(rng, cursor);
            sweep.access(ref);
            if (ref.type == AccessType::IFetch)
                inaive.access(ref.addr, true);
            else
                dnaive.access(ref.addr,
                              ref.type != AccessType::BlockStore);
        }
        for (std::size_t i = 0; i < configs.size(); ++i) {
            ASSERT_EQ(sweep.icacheResults()[i].misses,
                      inaive.misses[i])
                << "trial " << trial << " config " << i << " (I)";
            ASSERT_EQ(sweep.dcacheResults()[i].misses,
                      dnaive.misses[i])
                << "trial " << trial << " config " << i << " (D)";
            ASSERT_EQ(sweep.icacheResults()[i].accesses,
                      inaive.accesses);
            ASSERT_EQ(sweep.dcacheResults()[i].accesses,
                      dnaive.accesses);
        }
    }
}

TEST(Refinement, CriticalHistogramDerivesMissCounts)
{
    // On an inclusion chain, misses(k) == countable references whose
    // critical level exceeds k, and the histogram sums to the number
    // of countable references.
    const auto configs = SweepSimulator::paperSweep();
    mem::stackdist::RefinementSweep refine(configs);
    sim::Rng rng(0xCA11u);
    mem::Addr cursor = 0;
    std::uint64_t countable = 0;
    for (int step = 0; step < 20000; ++step) {
        const mem::MemRef ref = nextRef(rng, cursor);
        const bool count = ref.type != AccessType::BlockStore;
        refine.access(ref.addr, count);
        countable += count;
    }
    const std::vector<std::uint64_t> &hist =
        refine.criticalHistogram();
    ASSERT_EQ(hist.size(), configs.size() + 1);
    std::uint64_t total = 0;
    for (std::uint64_t h : hist)
        total += h;
    EXPECT_EQ(total, countable);
    for (std::size_t k = 0; k < configs.size(); ++k) {
        std::uint64_t expect = 0;
        for (std::size_t c = k + 1; c < hist.size(); ++c)
            expect += hist[c];
        EXPECT_EQ(refine.misses(k), expect) << "config " << k;
    }
}

TEST(Refinement, ResetCountersKeepsContents)
{
    const auto configs = SweepSimulator::paperSweep();
    mem::stackdist::RefinementSweep refine(configs);
    refine.access(0x4000, true);
    refine.access(0x8000, true);
    refine.resetCounters();
    EXPECT_EQ(refine.accesses(), 0u);
    EXPECT_EQ(refine.misses(0), 0u);
    refine.access(0x8000, true); // post-reset repeat of last block
    refine.access(0x4000, true); // and of the one before it
    EXPECT_EQ(refine.accesses(), 2u);
    for (std::size_t i = 0; i < configs.size(); ++i)
        EXPECT_EQ(refine.misses(i), 0u) << "config " << i;
}

TEST(SweepEngine, FullyAssociativeLadderUsesReuseTracker)
{
    std::vector<sim::CacheParams> configs;
    for (std::uint64_t blocks : {16u, 64u, 256u})
        configs.push_back(
            {blocks * 64, static_cast<unsigned>(blocks), 64});
    SweepSimulator sweep(configs);
    EXPECT_STREQ(sweep.engineName(), "stackdist-reuse");

    test::NaiveSweep naive(configs);
    sim::Rng rng(0xFAFAu);
    mem::Addr cursor = 0;
    for (int step = 0; step < 10000; ++step) {
        const mem::MemRef ref = nextRef(rng, cursor);
        sweep.access(ref);
        naive.access(ref);
    }
    test::expectSweepMatches(sweep, naive);
}

TEST(SweepEngine, OversizedAssociativityIsFatal)
{
    // 128-way with multiple sets exceeds the recency-row bound and is
    // not fully associative: no single-pass engine admits it.
    EXPECT_EXIT(SweepSimulator({{2 * 128 * 64, 128, 64}}),
                ::testing::ExitedWithCode(1),
                "no single-pass engine.*at most 64 ways");
}
