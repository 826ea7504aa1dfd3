/**
 * @file
 * Full-map directory state for the many-core MESI protocol plane.
 *
 * Each block has one home NUMA node (physical memory is
 * block-interleaved across nodes). The home keeps a directory entry
 * per block it has ever served: a width-parameterized sharer vector
 * (one bit per L2 group) plus the owning group when a sole copy is
 * outstanding in Exclusive or Modified. A requester sends GetS/GetM
 * to the home; the home answers from memory, or forwards to the owner
 * (a 3-hop transaction ending in a cache-to-cache transfer), or
 * invalidates sharers and collects acks. Replacements notify the home
 * (PutS/PutE/PutM), so in a fault-free run the sharer vector is exact
 * — precisely the invariant the directory checker in src/check/
 * audits against the real cache states.
 *
 * The controller also carries the protocol's message accounting
 * (requests, forwards, invalidations, acks, home writebacks, put
 * notices) and the NUMA traffic split (local vs. remote misses, hops
 * traversed) in one plain DirectoryStats struct; core::collectMetrics
 * reports it as `mem.dir.*` / `mem.numa.*` only when the directory
 * protocol is active, so snooping-bus metric output is byte-identical
 * to before this subsystem existed.
 *
 * Contention plane (DESIGN.md §3.15, opt-in via
 * MachineConfig::dirOccupancy): each home owns a bounded set of
 * in-flight transaction slots plus an epoch-utilization queue
 * mirroring the bus model's. A request finding every slot busy — or
 * its block still in the transient window of an earlier transaction —
 * is NACKed; the requester retries with bounded exponential backoff
 * (kDirRetryBound attempts). Interconnect hops additionally queue on
 * per-directed-link utilization models (ring or dimension-ordered XY
 * mesh routes). The contended-mode counters (`mem.dir.nacks`,
 * `mem.dir.retries`, `mem.dir.occupancy_*`, `mem.dir.lat.*`,
 * `mem.numa.link.*`) are reported only when the plane is enabled and
 * the per-axis `mem.numa.mesh.*` split only on a mesh, so
 * contention-free metric output stays byte-identical to the model
 * without the plane.
 */

#ifndef MEM_DIRECTORY_DIRECTORY_HH
#define MEM_DIRECTORY_DIRECTORY_HH

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "mem/block_meta.hh"
#include "mem/memref.hh"
#include "mem/sharer_set.hh"
#include "sim/config.hh"
#include "sim/ticks.hh"

namespace middlesim::mem
{

/**
 * Named bound on NACK/retry attempts per home transaction. A
 * fault-free home always frees a slot (and a block always leaves its
 * transient window) inside the cumulative backoff horizon of this
 * many attempts — see the livelock-freedom argument in DESIGN.md
 * §3.15 — so exceeding it means starvation: the access fails forward
 * and the checker raises `dir.livelock`.
 */
inline constexpr unsigned kDirRetryBound = 16;

/** Exponential-backoff base (ticks): attempt i waits base << min(i, cap). */
inline constexpr sim::Tick kDirNackBackoffBase = 4;

/** Backoff exponent cap, bounding a single wait at base << cap. */
inline constexpr unsigned kDirNackBackoffCap = 6;

/**
 * Horizon (ticks) past which a slot reservation or transient window
 * is treated as drained. CPUs advance in loose lockstep windows, so a
 * request's local clock can trail a reservation made by another CPU
 * by up to a window; a busy-until further ahead than any real
 * service-plus-queue time is clock skew, not load, and must not NACK
 * (it would break the bounded-retry guarantee).
 */
inline constexpr sim::Tick kDirNackHorizon = 512;

/** Upper edges (ticks) of the mem.dir.lat.* CDF buckets. */
inline constexpr sim::Tick kDirLatEdges[] = {64,   128,  256, 512,
                                             1024, 2048, 4096};

/** Miss-latency CDF buckets: one per edge plus the overflow bucket. */
inline constexpr unsigned kDirLatBuckets = std::size(kDirLatEdges) + 1;

/** Metric name of each latency bucket, in ascending-edge order. */
inline constexpr const char *kDirLatBucketNames[kDirLatBuckets] = {
    "mem.dir.lat.le_64",   "mem.dir.lat.le_128",
    "mem.dir.lat.le_256",  "mem.dir.lat.le_512",
    "mem.dir.lat.le_1024", "mem.dir.lat.le_2048",
    "mem.dir.lat.le_4096", "mem.dir.lat.gt_4096"};

/**
 * The directory's message, NUMA and contention accounting. Zeroed
 * only when a System begins its measured interval.
 */
struct DirectoryStats
{
    // Protocol messages.
    std::uint64_t getS = 0;
    std::uint64_t getM = 0;
    std::uint64_t upgrades = 0;
    std::uint64_t forwards = 0;
    std::uint64_t invalidationsSent = 0;
    std::uint64_t acksReceived = 0;
    std::uint64_t writebacksToHome = 0;
    std::uint64_t putNotices = 0;

    // NUMA traffic split.
    std::uint64_t localMisses = 0;
    std::uint64_t remoteMisses = 0;
    std::uint64_t hops = 0;
    /** Per-axis split of `hops` (mesh topology only). */
    std::uint64_t meshXHops = 0;
    std::uint64_t meshYHops = 0;

    // Contention plane (dirOccupancy != 0 only).
    std::uint64_t nacks = 0;
    std::uint64_t retries = 0;
    std::uint64_t livelockBreaks = 0;
    std::uint64_t occupancyBusyCycles = 0;
    std::uint64_t occupancyQueueDelay = 0;
    std::uint64_t linkBusyCycles = 0;
    std::uint64_t linkQueueDelay = 0;
    /** Contended miss latencies, bucketed by kDirLatEdges. */
    std::uint64_t latBuckets[kDirLatBuckets] = {};
};

/** Home-node directory record for one block. */
struct DirEntry
{
    /** L2 groups the directory believes hold a copy. */
    SharerSet sharers;
    /** Group holding the block Exclusive/Modified; -1 when none. */
    std::int32_t owner = -1;
    /**
     * End of the home-side transient window of the last transaction
     * on this block (0 = quiescent / contention plane disabled).
     * Requests landing inside the window are NACKed.
     */
    sim::Tick transientUntil = 0;

    DirEntry() = default;

    explicit DirEntry(unsigned num_groups) : sharers(num_groups) {}
};

/**
 * The directory protocol's bookkeeping plane: per-block entries plus
 * message/NUMA accounting and (opt-in) home/link contention state.
 * Transition logic lives in the Hierarchy's directory access path
 * (mem/directory/dir_access.cc), which mutates entries through this
 * controller.
 */
class DirectoryController
{
  public:
    explicit DirectoryController(unsigned num_groups);

    /** Arm the topology/contention plane from the machine config. */
    void configure(const sim::MachineConfig &cfg);

    /** True when home occupancy / link queuing is modeled. */
    bool contended() const { return slotsPerHome_ != 0; }

    /** In-flight transaction slots per home (0 = contention-free). */
    unsigned slotsPerHome() const { return slotsPerHome_; }

    /** Find-or-create the entry for a block-aligned address. */
    DirEntry &entry(Addr block) { return entries_[block]; }

    /** Lookup without insertion; nullptr when the home never saw it. */
    const DirEntry *peek(Addr block) const
    {
        return entries_.find(block);
    }

    /** Visit every directory entry (checker audits). */
    template <typename F>
    void
    forEach(F &&fn) const
    {
        entries_.forEach(std::forward<F>(fn));
    }

    /** Drop all entries (invalidateAll). */
    void clear();

    /**
     * Try to claim an in-flight slot at home `home` for `service`
     * ticks starting at `now`. On success charges the home's
     * utilization-queue delay into `queue_delay` (mirroring
     * Bus::acquire) and occupies the freest slot until the service
     * completes. Returns false — a NACK — when every slot is busy
     * within kDirNackHorizon. Contention-free mode always succeeds
     * with zero delay.
     */
    bool tryAcquireHome(unsigned home, sim::Tick now,
                        sim::Tick service, sim::Tick &queue_delay);

    /**
     * Queue delay of one message traversing the `from` -> `to` route
     * (ring or dimension-ordered XY mesh), charging `per_hop`
     * occupancy into each directed link crossed (hop counts are
     * chargeHops()'s). 0 when uncontended or from == to.
     */
    sim::Tick linkTraverse(unsigned from, unsigned to,
                           sim::Tick per_hop);

    /**
     * Close a utilization epoch of `epoch_len` ticks for every home
     * and link: utilization measured in it drives queueing delays in
     * the next epoch (exactly the bus model's scheme). No-op when
     * uncontended.
     */
    void advanceEpoch(sim::Tick epoch_len);

    /**
     * Account `count` traversals of the a <-> b route: total hops
     * plus the per-axis mesh split.
     */
    void
    chargeHops(unsigned a, unsigned b, unsigned count)
    {
        stats_.hops += count * cfg_.hopsBetween(a, b);
        if (cfg_.topology == sim::Topology::Mesh) {
            stats_.meshXHops += count * cfg_.meshHopsX(a, b);
            stats_.meshYHops += count * cfg_.meshHopsY(a, b);
        }
    }

    /** Bucket a contended-mode miss latency into the latency CDF. */
    void recordMissLatency(sim::Tick latency);

    /** Message/NUMA/contention counts, bumped by the access path. */
    DirectoryStats &stats() { return stats_; }
    const DirectoryStats &stats() const { return stats_; }

  private:
    /** One home's contention state: slot reservations + epoch queue. */
    struct HomeState
    {
        std::vector<sim::Tick> slotBusyUntil;
        sim::Tick epochBusy = 0;
        double utilization = 0.0;
    };

    /** One directed interconnect link's epoch-utilization queue. */
    struct LinkState
    {
        sim::Tick epochBusy = 0;
        double utilization = 0.0;
    };

    /** Walk one axis of the route, claiming each directed link. */
    sim::Tick walkAxis(unsigned &node, unsigned coord, unsigned target,
                       unsigned size, unsigned stride, unsigned fwd_dir,
                       sim::Tick per_hop);

    BlockMetaTableT<DirEntry> entries_;
    sim::MachineConfig cfg_;

    unsigned slotsPerHome_ = 0;
    std::vector<HomeState> homes_;
    std::vector<LinkState> links_;

    DirectoryStats stats_;
};

} // namespace middlesim::mem

#endif // MEM_DIRECTORY_DIRECTORY_HH
