/**
 * @file
 * Exact one-pass multi-geometry set-associative LRU simulation.
 *
 * The generalization of Mattson's stack algorithm to set-associative
 * caches (Hill & Smith's all-associativity simulation): with LRU
 * replacement and bit-selection indexing, a set of S sets and
 * associativity A holds, per set, exactly the A most recently
 * referenced distinct blocks mapping to it. Each configured geometry
 * therefore reduces to per-set recency rows of A block ids — no tag
 * arrays, no LRU clocks, no victim scans — and one pass over the
 * reference stream updates every geometry at once.
 *
 * Per-geometry miss counts are bit-identical to simulating each
 * configuration with its own CacheArray (the oracle in
 * tests/sweep_oracle.hh); tests/test_stackdist.cpp enforces this
 * across randomized geometries. When the configurations form an inclusion chain (same
 * block size and associativity, set counts refining), the engine
 * additionally bins every countable reference by its *critical
 * level* — the smallest configuration that hits — producing the
 * set-refinement analogue of a stack-distance histogram from which
 * all miss counts are derivable (misses of config k = references
 * whose critical level exceeds k).
 */

#ifndef MEM_STACKDIST_REFINEMENT_HH
#define MEM_STACKDIST_REFINEMENT_HH

#include <cstdint>
#include <vector>

#include "mem/memref.hh"
#include "sim/config.hh"

namespace middlesim::mem::stackdist
{

/** One-pass simulator of many set-associative LRU geometries. */
class RefinementSweep
{
  public:
    /** `configs` must satisfy suitable(). */
    explicit RefinementSweep(
        const std::vector<sim::CacheParams> &configs);

    /**
     * True when every geometry can be simulated by this engine: a
     * common power-of-two block size, power-of-two set counts, and
     * associativities small enough that a recency row stays cheap to
     * shift (beyond that, a tree-based engine wins; see
     * ReuseDistanceTracker for the fully-associative extreme).
     */
    static bool suitable(const std::vector<sim::CacheParams> &configs);

    /** Largest associativity the recency-row representation accepts. */
    static constexpr unsigned kMaxAssoc = 64;

    /**
     * Feed one reference to every geometry. `count_miss` is false for
     * block-initializing stores: they install (update recency) but
     * are never counted as misses (the write-allocate sweep
     * convention of SweepSimulator).
     */
    void access(Addr addr, bool count_miss);

    std::uint64_t accesses() const { return accesses_; }

    /** Exact miss count of configuration i (ctor order). */
    std::uint64_t misses(std::size_t i) const { return misses_.at(i); }

    /**
     * Histogram of countable references by critical level: bucket k
     * counts references whose smallest hitting configuration is k;
     * the final bucket counts references that missed everywhere.
     * Meaningful as a stack-distance histogram only under an
     * inclusion chain (where hit sets are nested).
     */
    const std::vector<std::uint64_t> &
    criticalHistogram() const
    {
        return critHist_;
    }

    /** Zero counters and histograms; keep cache contents. */
    void resetCounters();

    /** Discard contents and counters. */
    void reset();

  private:
    /** One geometry: per-set recency rows of `assoc` block ids. */
    struct Level
    {
        std::uint64_t setMask;
        unsigned assoc;
        /** numSets * assoc block ids, MRU first; kEmpty when free. */
        std::vector<std::uint64_t> ways;
    };

    static constexpr std::uint64_t kEmpty =
        ~static_cast<std::uint64_t>(0);

    unsigned blockShift_;
    std::vector<Level> levels_;
    std::vector<std::uint64_t> misses_;
    /** [levels + 1]; see criticalHistogram(). */
    std::vector<std::uint64_t> critHist_;
    std::uint64_t accesses_ = 0;
    /** Previous reference's block: a repeat is MRU everywhere. */
    std::uint64_t lastBlock_ = kEmpty;
};

} // namespace middlesim::mem::stackdist

#endif // MEM_STACKDIST_REFINEMENT_HH
