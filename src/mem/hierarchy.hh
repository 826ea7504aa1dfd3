/**
 * @file
 * The coherent multiprocessor memory hierarchy.
 *
 * Structure (matching the E6000 platform of the paper, generalized to
 * the CMP shared-cache configurations of Figure 16):
 *
 *   CPU i --> private split L1I / L1D (write-through, no-write-allocate)
 *         --> L2 shared by `cpusPerL2` CPUs (MOSI coherent)
 *         --> snooping bus --> memory
 *
 * A miss snoops all peer L2s; if a peer holds the block in Modified or
 * Owned state it supplies the data (a snoop copyback, i.e. the paper's
 * cache-to-cache transfer) at 1.4x memory latency.
 *
 * Misses are classified per requesting cache as cold / coherence /
 * capacity-conflict using per-block removal-cause metadata. Optional
 * communication tracking records per-line copyback counts and the set
 * of touched lines (Figures 14/15), and an optional timeline bins
 * copybacks by time (Figure 10).
 */

#ifndef MEM_HIERARCHY_HH
#define MEM_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/access_observer.hh"
#include "mem/block_meta.hh"
#include "mem/bus.hh"
#include "mem/cache_array.hh"
#include "mem/directory/directory.hh"
#include "mem/fault.hh"
#include "mem/latency.hh"
#include "mem/memref.hh"
#include "mem/stats.hh"
#include "mem/trace_sink.hh"
#include "sim/config.hh"
#include "stats/distribution.hh"

namespace middlesim::mem
{

/** Bins events (here: copybacks) into fixed-width time buckets. */
class TimelineSampler
{
  public:
    TimelineSampler(sim::Tick bin_width, unsigned num_bins)
        : binWidth_(bin_width), bins_(num_bins, 0)
    {
    }

    void
    add(sim::Tick t)
    {
        const auto bin = static_cast<std::size_t>(t / binWidth_);
        if (bin < bins_.size())
            ++bins_[bin];
    }

    const std::vector<std::uint64_t> &bins() const { return bins_; }
    sim::Tick binWidth() const { return binWidth_; }

  private:
    sim::Tick binWidth_;
    std::vector<std::uint64_t> bins_;
};

/**
 * Sharer-group ceilings per protocol. The snooping bus keeps the
 * historical 32-group limit (every L2 must observe every bus
 * transaction; the model was validated at the paper's 16-CPU scale).
 * The directory protocol's full-map vectors are width-parameterized,
 * capped only by a sanity bound well above the 512-CPU target.
 */
inline constexpr unsigned kMaxSnoopGroups = 32;
inline constexpr unsigned kMaxDirectoryGroups = 1024;

/**
 * Coherence traffic that is not attributable to the requesting CPU,
 * so it is counted per machine rather than in the per-CPU CacheStats.
 */
struct CoherenceStats
{
    /** Peer L2 copies invalidated by a remote write. */
    std::uint64_t invalidations = 0;
    /** L1 copies dropped when their L2 line was invalidated or evicted. */
    std::uint64_t l1BackInvalidations = 0;
    /** Peer L2s that supplied data (snoop copyback or forward). */
    std::uint64_t copybacksSupplied = 0;
};

/** The full coherent memory system of one simulated machine. */
class Hierarchy
{
  public:
    Hierarchy(const sim::MachineConfig &config,
              const LatencyModel &latency,
              bool bus_contention = true);

    /** Perform one access; returns latency and classification. */
    AccessResult
    access(const MemRef &ref, sim::Tick now)
    {
        if (taps_.empty()) [[likely]]
            return accessImpl(ref, now);
        return tappedAccess(ref, now);
    }

    /** L2 group serving a CPU. */
    unsigned groupOf(unsigned cpu) const { return cpu / cfg_.cpusPerL2; }

    /** Per-requesting-CPU statistics. */
    const CacheStats &cpuStats(unsigned cpu) const { return stats_[cpu]; }

    /** Aggregate statistics over CPUs [lo, hi] inclusive. */
    CacheStats aggregateRange(unsigned lo, unsigned hi) const;

    /** Aggregate statistics over all CPUs. */
    CacheStats aggregateAll() const;

    /** Zero all per-CPU statistics (cache contents are preserved). */
    void resetStats();

    /** Coherence traffic counts (see CoherenceStats). */
    const CoherenceStats &coherenceStats() const { return coherence_; }

    /**
     * Zero the coherence and directory counts. Separate from
     * resetStats(), which trace replay also calls on StatsReset: the
     * checker's ack and livelock baselines rely on these counts
     * running on across that point.
     */
    void resetCoherenceStats();

    /** Enable per-line copyback and touched-line tracking. */
    void setCommunicationTracking(bool on);

    /** Per-line copyback counts (valid when tracking is on). */
    const stats::KeyCounts &c2cPerLine() const { return c2cPerLine_; }

    /** Distinct lines referenced at L2 level since tracking reset. */
    std::uint64_t touchedLines() const { return touchedCount_; }

    /** Clear communication-tracking state (counts + touched set). */
    void resetCommunicationTracking();

    /** Install a copyback timeline (Figure 10). */
    void enableTimeline(sim::Tick bin_width, unsigned num_bins);
    const TimelineSampler *timeline() const { return timeline_.get(); }

    /**
     * Attach a tap (mem/access_observer.hh): it hears every reference
     * before and after this hierarchy processes it, in processing
     * order, and every reset / invalidate point as an annotation.
     * Taps are read-only: attaching one never changes simulation
     * results. Attaching an attached tap is a no-op.
     */
    void attachTap(AccessObserver *tap);

    /** Detach a tap; a no-op when it is not attached. */
    void detachTap(AccessObserver *tap);

    /**
     * Attach a trace sink as a tap, replacing the sink this setter
     * last attached; nullptr detaches it.
     */
    void setTraceSink(TraceSink *sink) { replaceTap(sinkTap_, sink); }

    /**
     * Attach an observer as a tap, replacing the observer this setter
     * last attached; nullptr detaches it.
     */
    void
    setAccessObserver(AccessObserver *obs)
    {
        replaceTap(observerTap_, obs);
    }

    /**
     * Install a deterministic coherence fault (tests/stress only);
     * nullptr disarms. The plan is borrowed and must outlive its use.
     */
    void setFaultPlan(const FaultPlan *plan) { fault_ = plan; }

    /** Coherence state of a block in the L2 serving `cpu`. */
    CoherenceState peekState(unsigned cpu, Addr addr) const;

    /** The directory controller; nullptr under the snooping bus. */
    const DirectoryController *directory() const { return dir_.get(); }

    /** Directory entry for a block (nullptr: no directory / unseen). */
    const DirEntry *
    peekDirEntry(Addr block) const
    {
        return dir_ ? dir_->peek(block) : nullptr;
    }

    // Read-only inspection API for checkers and tests.
    unsigned numGroups() const { return cfg_.numL2s(); }
    const CacheArray &l1iArray(unsigned cpu) const { return l1i_[cpu]; }
    const CacheArray &l1dArray(unsigned cpu) const { return l1d_[cpu]; }
    const CacheArray &l2Array(unsigned group) const { return l2_[group]; }

    /** Per-block metadata of `block` (nullptr when never cached). */
    const LineMeta *
    peekMeta(Addr block) const
    {
        return meta_.find(block);
    }

    /** Visit every per-block metadata entry (checker audits). */
    template <typename F>
    void
    forEachMeta(F &&fn) const
    {
        meta_.forEach(std::forward<F>(fn));
    }

    /** Invalidate all caches (dirty data is dropped; test/phase use). */
    void invalidateAll();

    /** A named address range for miss attribution. */
    struct Region
    {
        std::string name;
        Addr base = 0;
        std::uint64_t bytes = 0;
        std::uint64_t missCold = 0;
        std::uint64_t missCoherence = 0;
        std::uint64_t missCapacity = 0;

        std::uint64_t
        total() const
        {
            return missCold + missCoherence + missCapacity;
        }
    };

    /** Register a region; misses inside it are attributed to it. */
    void defineRegion(const std::string &name, Addr base,
                      std::uint64_t bytes);

    const std::vector<Region> &regions() const { return regions_; }

    /** Zero per-region miss counters. */
    void resetRegionStats();

    const Bus &bus() const { return bus_; }
    Bus &bus() { return bus_; }

    /**
     * Close one lockstep-window utilization epoch: the bus plus (when
     * armed) the directory homes and interconnect links. Driven by
     * System::run on window boundaries; replay/explore paths never
     * advance epochs, so their utilization-queue delays are zero and
     * only the tick-driven slot/NACK model is active there.
     */
    void
    advanceContentionEpoch(sim::Tick epoch_len)
    {
        bus_.advanceEpoch(epoch_len);
        if (dir_)
            dir_->advanceEpoch(epoch_len);
    }
    const sim::MachineConfig &config() const { return cfg_; }
    const LatencyModel &latency() const { return lat_; }

  private:
    /** The access dispatch proper (taps are called in access()). */
    AccessResult accessImpl(const MemRef &ref, sim::Tick now);

    /** access() with taps attached: pre, dispatch, post. */
    AccessResult tappedAccess(const MemRef &ref, sim::Tick now);

    /** Tell every tap about a hierarchy reset / invalidate point. */
    void annotate(TraceAnnotation kind);

    /** Swap the tap held in `slot` (a setter's last) for `tap`. */
    void replaceTap(AccessObserver *&slot, AccessObserver *tap);

    AccessResult l2Access(const MemRef &ref, sim::Tick now,
                          bool is_instr, bool want_write);

    // Directory-protocol access path (mem/directory/dir_access.cc).
    AccessResult l2AccessDirectory(const MemRef &ref, sim::Tick now,
                                   bool is_instr, bool want_write);
    AccessResult l2BlockStoreDirectory(const MemRef &ref,
                                       sim::Tick now);

    /**
     * Directory GetM/Upgrade service: invalidate every sharer and
     * owner copy except `group`, collecting acks. Returns true if a
     * forwarded owner supplied data (want_data GetM only).
     */
    bool dirInvalidateSharers(Addr block, unsigned group,
                              bool want_data, DirEntry &entry,
                              LineMeta &meta, unsigned &inval_count);

    /** Replacement notice to the home (PutS/PutE/PutM). */
    void dirHandlePut(unsigned group, const CacheLine &victim);

    /**
     * Contended-mode home acquisition: the NACK/retry loop with
     * bounded exponential backoff (DESIGN.md §3.15). Returns the
     * extra latency accumulated — NACK round trips, backoff waits and
     * the home's utilization-queue delay — and marks the block's
     * transient window on success. 0 when the plane is disabled.
     */
    sim::Tick dirHomeAcquire(Addr block, unsigned group, unsigned home,
                             unsigned req_hops, DirEntry &entry,
                             sim::Tick now);

    /** Common L2-miss accounting tail (class, regions, instr/data). */
    void recordMissTail(const MemRef &ref, MissClass mclass,
                        bool is_instr);

    /** True if an armed FaultPlan of `kind` fires for (block, group). */
    bool
    faultFires(FaultPlan::Kind kind, Addr block, unsigned group) const
    {
        return fault_ && fault_->kind == kind &&
               fault_->matches(block, group);
    }

    /** Classify an L2 miss for group g and update metadata. */
    MissClass classifyMiss(LineMeta &meta, unsigned group);

    /** Record a distinct touched line (communication tracking). */
    void recordTouched(LineMeta &meta);

    /** Block-initializing store: install M without a data fetch. */
    AccessResult l2BlockStore(const MemRef &ref, sim::Tick now);

    /** Remove a victim line from group g (writeback + back-inval). */
    void evictLine(unsigned group, CacheLine &victim, unsigned req_cpu,
                   sim::Tick now);

    /** Invalidate a block in group g due to a remote write. */
    void invalidateForRemoteWrite(unsigned group, CacheLine &line,
                                  LineMeta &meta);

    /** Remove the block from the L1s of every CPU in group g. */
    void backInvalidateL1s(unsigned group, Addr block);

    sim::MachineConfig cfg_;
    LatencyModel lat_;
    Bus bus_;

    std::vector<CacheArray> l1i_; // per CPU
    std::vector<CacheArray> l1d_; // per CPU
    std::vector<CacheArray> l2_;  // per group
    std::vector<CacheStats> stats_; // per CPU

    BlockMetaTable meta_;
    std::vector<Region> regions_;

    /** Directory protocol state; null under the snooping bus. */
    std::unique_ptr<DirectoryController> dir_;

    CoherenceStats coherence_;

    bool trackComm_ = false;
    stats::KeyCounts c2cPerLine_;
    std::uint64_t touchedCount_ = 0;

    std::unique_ptr<TimelineSampler> timeline_;
    std::vector<AccessObserver *> taps_;
    /** What setTraceSink / setAccessObserver last attached. */
    AccessObserver *sinkTap_ = nullptr;
    AccessObserver *observerTap_ = nullptr;
    const FaultPlan *fault_ = nullptr;
};

} // namespace middlesim::mem

#endif // MEM_HIERARCHY_HH
