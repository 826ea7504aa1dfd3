/**
 * @file
 * Multi-configuration uniprocessor cache sweep.
 *
 * The paper's Figures 12 and 13 report instruction- and data-cache
 * miss rates for a single-processor system across cache sizes from
 * 64 KB to 16 MB (4-way, 64-byte blocks). Like the Sumo simulator the
 * authors used, SweepSimulator evaluates many cache geometries
 * simultaneously over a single reference stream: each reference is fed
 * to every configured cache.
 *
 * Split caches are modeled: instruction fetches go to the I-bank,
 * loads/stores/atomics to the D-bank. There is no coherence (one
 * processor) and stores allocate (write-back, write-allocate), which
 * is the conventional configuration for miss-ratio sweeps.
 *
 * The sweep is a reference-stream tap (mem/access_observer.hh): attach
 * it to a Hierarchy and it hears every reference the execution-driven
 * run makes, or hand it to trace::replayTraceFanout to score a
 * recording. A StatsReset annotation (the warmup boundary) zeroes its
 * counters and an Instructions annotation adds to its MPKI
 * denominator, so live runs and replays follow one protocol.
 *
 * One engine family scores every geometry in a single pass
 * (src/mem/stackdist/), chosen from the geometry list:
 *
 *  - Fully-associative ladders use the exact O(log n) Fenwick-tree
 *    reuse-distance tracker.
 *  - Other lists with one power-of-two block size and power-of-two
 *    set counts (the paper sweep among them) use the exact
 *    set-refinement engine: per-set recency rows updated once per
 *    reference, every geometry at once, with a critical-level
 *    histogram when the configurations form an inclusion chain.
 *
 * Any other geometry list is a fatal error. Miss and access counts
 * equal an independent per-configuration CacheArray walk, the test
 * oracle in tests/sweep_oracle.hh.
 */

#ifndef MEM_SWEEP_HH
#define MEM_SWEEP_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/access_observer.hh"
#include "mem/memref.hh"
#include "mem/stackdist/refinement.hh"
#include "mem/stackdist/reuse.hh"
#include "sim/config.hh"

namespace middlesim::mem
{

/** Result of one cache configuration in a sweep. */
struct SweepResult
{
    sim::CacheParams params;
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

    double
    missesPer1000(std::uint64_t instructions) const
    {
        return instructions
            ? 1000.0 * static_cast<double>(misses) /
              static_cast<double>(instructions)
            : 0.0;
    }
};

/** Bank of independent caches fed a common reference stream. */
class SweepSimulator final : public AccessObserver
{
  public:
    /** Fatal when no single-pass engine admits `configs`. */
    explicit SweepSimulator(const std::vector<sim::CacheParams> &configs);

    /** The standard sweep of the paper: 64 KB..16 MB, 4-way, 64 B. */
    static std::vector<sim::CacheParams> paperSweep();

    /** Feed one reference to the appropriate bank of all caches. */
    void access(const MemRef &ref);

    /** As a tap: feed the reference to the sweep. */
    void preAccess(const MemRef &ref, sim::Tick) override { access(ref); }

    /** As a tap: StatsReset zeroes counters, Instructions counts. */
    void annotation(TraceAnnotation kind, unsigned cpu, sim::Tick now,
                    std::uint64_t arg) override;

    /** Count executed instructions (denominator of MPKI). */
    void countInstructions(std::uint64_t n) { instructions_ += n; }

    std::uint64_t instructions() const { return instructions_; }

    const std::vector<SweepResult> &icacheResults() const;
    const std::vector<SweepResult> &dcacheResults() const;

    /** Misses per 1000 instructions for config i, instruction side. */
    double imissPer1000(std::size_t i) const;
    /** Misses per 1000 instructions for config i, data side. */
    double dmissPer1000(std::size_t i) const;

    /** True when the configs form an LRU set-refinement chain. */
    bool inclusionChain() const { return inclusionChain_; }

    /** Human-readable name of the active engine. */
    const char *engineName() const;

    /**
     * Critical-level histograms of the instruction and data banks
     * (countable references binned by the smallest configuration
     * that hit; last bucket = missed everywhere). Only available
     * from the set-refinement engine on an inclusion chain; nullptr
     * otherwise.
     */
    const std::vector<std::uint64_t> *icriticalHistogram() const;
    const std::vector<std::uint64_t> *dcriticalHistogram() const;

    /** Clear caches and counters. */
    void reset();

    /** Zero counters but keep cache contents (post-warmup). */
    void resetCounters();

  private:
    /** One side (I or D) of the split sweep. */
    struct Bank
    {
        // Exactly one engine is non-null.
        std::unique_ptr<stackdist::RefinementSweep> refine;
        std::unique_ptr<stackdist::ReuseDistanceTracker> reuse;

        /** Per-config results; counters synced lazily. */
        mutable std::vector<SweepResult> results;
    };

    /**
     * Feed one reference through a bank. `count_misses` is false for
     * block-initializing stores, which install without a data fetch
     * and are counted as accesses but never as misses.
     */
    static void accessBank(Bank &bank, Addr addr, bool count_misses);

    /** Sync the lazily-maintained counters into results. */
    const std::vector<SweepResult> &syncedResults(const Bank &b) const;

    Bank ibank_;
    Bank dbank_;
    bool inclusionChain_ = false;
    std::uint64_t instructions_ = 0;
};

} // namespace middlesim::mem

#endif // MEM_SWEEP_HH
