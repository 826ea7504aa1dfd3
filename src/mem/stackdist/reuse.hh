/**
 * @file
 * Exact fully-associative LRU reuse-distance tracking in one pass.
 *
 * Mattson's stack algorithm: under LRU, the set of blocks resident in
 * a fully-associative cache of capacity C is exactly the C most
 * recently used distinct blocks, for every C simultaneously. A
 * reference therefore hits in capacity C iff its stack distance — the
 * number of distinct blocks referenced since its previous reference —
 * is < C. One pass recording a histogram of stack distances yields
 * the exact miss count of *every* capacity at once.
 *
 * The distance query is interval counting over time slots (a Fenwick
 * tree marking each tracked block's most recent access slot), O(log n)
 * per reference instead of the O(stack depth) walk of an explicit LRU
 * list. Slot space is compacted by renumbering live blocks in recency
 * order whenever it fills, keeping memory proportional to the number
 * of distinct blocks, not the reference count.
 */

#ifndef MEM_STACKDIST_REUSE_HH
#define MEM_STACKDIST_REUSE_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mem/memref.hh"
#include "mem/stackdist/fenwick.hh"

namespace middlesim::mem::stackdist
{

/** Distance value reported for a first-ever (cold) reference. */
inline constexpr std::uint64_t kColdDistance =
    ~static_cast<std::uint64_t>(0);

/**
 * One-pass reuse-distance engine for a ladder of fully-associative
 * LRU capacities over a common reference stream.
 */
class ReuseDistanceTracker
{
  public:
    /**
     * `capacities` are in blocks (any order, duplicates allowed);
     * `blockBytes` is the common power-of-two line size.
     */
    ReuseDistanceTracker(const std::vector<std::uint64_t> &capacities,
                         unsigned blockBytes);

    /**
     * Feed one reference. `count_miss` is false for block-initializing
     * stores: they update recency (the line is installed) but are
     * never counted as misses (the write-allocate sweep convention of
     * SweepSimulator).
     */
    void access(Addr addr, bool count_miss);

    std::uint64_t accesses() const { return accesses_; }

    /** Exact LRU miss count for capacity i (ctor order). */
    std::uint64_t misses(std::size_t i) const;

    /** First-ever references (miss in every finite capacity). */
    std::uint64_t coldMisses() const { return critHist_.back(); }

    /** Number of distinct blocks currently tracked. */
    std::uint64_t trackedBlocks() const { return lastSlot_.size(); }

    /**
     * Histogram of miss-countable references by the index of the
     * smallest capacity they hit in (sorted unique capacities;
     * last bucket = missed everywhere, i.e. cold).
     */
    const std::vector<std::uint64_t> &
    criticalHistogram() const
    {
        return critHist_;
    }

    /** log2-bucketed histogram of finite stack distances. */
    const std::vector<std::uint64_t> &
    distanceHistogramLog2() const
    {
        return distHist_;
    }

    /** Zero counters and histograms; keep the recency stack. */
    void resetCounters();

    /** Discard everything, including the stack. */
    void reset();

  private:
    /** Stack distance of `block`, updating its slot to now. */
    std::uint64_t touchAndDistance(std::uint64_t block);

    /** Renumber live blocks by recency into a fresh slot space. */
    void compact(std::size_t capacity);

    unsigned blockShift_;
    /** Sorted unique capacities; thresholds of the crit histogram. */
    std::vector<std::uint64_t> sortedCaps_;
    /** Config index (ctor order) -> index into sortedCaps_. */
    std::vector<std::size_t> cfgBucket_;

    /** block id -> slot of its most recent access. */
    std::unordered_map<std::uint64_t, std::uint64_t> lastSlot_;
    Fenwick marked_;
    std::uint64_t nextSlot_ = 0;
    std::uint64_t lastBlock_ = kColdDistance;

    std::uint64_t accesses_ = 0;
    /** [sortedCaps_.size() + 1]; last bucket counts cold refs. */
    std::vector<std::uint64_t> critHist_;
    std::vector<std::uint64_t> distHist_;
};

} // namespace middlesim::mem::stackdist

#endif // MEM_STACKDIST_REUSE_HH
