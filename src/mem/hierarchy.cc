#include "mem/hierarchy.hh"

#include <algorithm>
#include <bit>

#include "sim/log.hh"

namespace middlesim::mem
{

Hierarchy::Hierarchy(const sim::MachineConfig &config,
                     const LatencyModel &latency, bool bus_contention,
                     sim::MetricRegistry *metrics)
    : cfg_(config), lat_(latency), bus_(bus_contention)
{
    invalidations_ = metrics
        ? &metrics->counter("mem.coherence.invalidations")
        : &fallbackCounters_[0];
    backInvalidations_ = metrics
        ? &metrics->counter("mem.coherence.l1_back_invalidations")
        : &fallbackCounters_[1];
    copybacksSupplied_ = metrics
        ? &metrics->counter("mem.coherence.copybacks_supplied")
        : &fallbackCounters_[2];
    cfg_.validate();
    // Per-block sharer sets carry one bit per L2 group; each protocol
    // declares how wide a machine it supports. The snooping bus keeps
    // its historical ceiling — every L2 observes every transaction,
    // and the model was only ever validated at bus scales — while the
    // directory's full-map vectors are width-parameterized up to a
    // sanity bound.
    if (cfg_.protocol == sim::CoherenceProtocol::SnoopBus &&
        cfg_.numL2s() > kMaxSnoopGroups) {
        fatal("hierarchy: ", cfg_.numL2s(),
              " L2 groups exceed kMaxSnoopGroups=", kMaxSnoopGroups,
              " for the snooping bus; select --protocol=directory "
              "for many-core geometries");
    }
    if (cfg_.numL2s() > kMaxDirectoryGroups) {
        fatal("hierarchy: ", cfg_.numL2s(),
              " L2 groups exceed kMaxDirectoryGroups=",
              kMaxDirectoryGroups);
    }
    meta_ = BlockMetaTable(1u << 18, LineMeta(cfg_.numL2s()));
    if (cfg_.protocol == sim::CoherenceProtocol::DirectoryMesi) {
        dir_ = std::make_unique<DirectoryController>(cfg_.numL2s(),
                                                     metrics);
        dir_->configure(cfg_);
    }

    l1i_.reserve(cfg_.totalCpus);
    l1d_.reserve(cfg_.totalCpus);
    stats_.resize(cfg_.totalCpus);
    for (unsigned c = 0; c < cfg_.totalCpus; ++c) {
        l1i_.emplace_back(cfg_.l1i);
        l1d_.emplace_back(cfg_.l1d);
    }
    l2_.reserve(cfg_.numL2s());
    for (unsigned g = 0; g < cfg_.numL2s(); ++g)
        l2_.emplace_back(cfg_.l2);
}

void
Hierarchy::attachTap(AccessObserver *tap)
{
    if (std::find(taps_.begin(), taps_.end(), tap) == taps_.end())
        taps_.push_back(tap);
}

void
Hierarchy::detachTap(AccessObserver *tap)
{
    taps_.erase(std::remove(taps_.begin(), taps_.end(), tap),
                taps_.end());
}

void
Hierarchy::replaceTap(AccessObserver *&slot, AccessObserver *tap)
{
    if (slot)
        detachTap(slot);
    slot = tap;
    if (tap)
        attachTap(tap);
}

void
Hierarchy::annotate(TraceAnnotation kind)
{
    for (AccessObserver *tap : taps_)
        tap->annotation(kind, 0, 0, 0);
}

AccessResult
Hierarchy::tappedAccess(const MemRef &ref, sim::Tick now)
{
    for (AccessObserver *tap : taps_)
        tap->preAccess(ref, now);
    const AccessResult res = accessImpl(ref, now);
    for (AccessObserver *tap : taps_)
        tap->postAccess(ref, res, now);
    return res;
}

AccessResult
Hierarchy::accessImpl(const MemRef &ref, sim::Tick now)
{
    CacheStats &st = stats_[ref.cpu];

    switch (ref.type) {
      case AccessType::IFetch: {
        ++st.ifetches;
        CacheArray &l1 = l1i_[ref.cpu];
        if (CacheLine *line = l1.find(ref.addr)) {
            l1.touch(*line);
            ++st.l1iHits;
            return {lat_.l1Hit, ServedBy::L1, MissClass::None};
        }
        AccessResult res = l2Access(ref, now, true, false);
        CacheLine &frame = l1.victim(ref.addr);
        l1.install(frame, ref.addr, CoherenceState::Shared);
        return res;
      }
      case AccessType::Load: {
        ++st.loads;
        CacheArray &l1 = l1d_[ref.cpu];
        if (CacheLine *line = l1.find(ref.addr)) {
            l1.touch(*line);
            ++st.l1dHits;
            return {lat_.l1Hit, ServedBy::L1, MissClass::None};
        }
        AccessResult res = l2Access(ref, now, false, false);
        CacheLine &frame = l1.victim(ref.addr);
        l1.install(frame, ref.addr, CoherenceState::Shared);
        return res;
      }
      case AccessType::Store: {
        ++st.stores;
        // Write-through, no-write-allocate: the L1D copy (if any) is
        // updated in place; the store always proceeds to the L2.
        CacheArray &l1 = l1d_[ref.cpu];
        if (CacheLine *line = l1.find(ref.addr)) {
            l1.touch(*line);
            ++st.l1dHits;
        }
        return l2Access(ref, now, false, true);
      }
      case AccessType::Atomic: {
        ++st.atomics;
        // Atomics bypass the L1 and perform the RMW at the L2.
        return l2Access(ref, now, false, true);
      }
      case AccessType::BlockStore: {
        ++st.stores;
        ++st.blockStores;
        CacheArray &l1 = l1d_[ref.cpu];
        if (CacheLine *line = l1.find(ref.addr))
            l1.touch(*line);
        return l2BlockStore(ref, now);
      }
    }
    panic("unreachable access type");
}

AccessResult
Hierarchy::l2Access(const MemRef &ref, sim::Tick now, bool is_instr,
                    bool want_write)
{
    if (dir_)
        return l2AccessDirectory(ref, now, is_instr, want_write);

    CacheStats &st = stats_[ref.cpu];
    const unsigned group = groupOf(ref.cpu);
    CacheArray &l2 = l2_[group];
    const Addr block = l2.blockAddr(ref.addr);

    ++st.l2Accesses;
    if (trackComm_)
        recordTouched(meta_[block]);

    if (CacheLine *line = l2.find(ref.addr)) {
        if (!want_write || canWrite(line->state)) {
            l2.touch(*line);
            ++st.l2Hits;
            return {lat_.l2Hit, ServedBy::L2, MissClass::None};
        }
        // Ownership upgrade: we hold S or O data; invalidate peers.
        LineMeta &meta = meta_[block];
        const SharerSet peers = meta.presenceMask;
        peers.forEachSetExcept(group, [&](unsigned g) {
            CacheLine *peer = l2_[g].find(ref.addr);
            sim_assert(peer, "presence mask out of sync (upgrade)");
            if (!faultFires(FaultPlan::Kind::DropInvalidate, block, g))
                invalidateForRemoteWrite(g, *peer, meta);
        });
        const sim::Tick queue = bus_.acquire(now, lat_.busAddrOccupancy);
        line->state = CoherenceState::Modified;
        l2.touch(*line);
        ++st.upgrades;
        return {lat_.upgrade + queue, ServedBy::UpgradeOnly,
                MissClass::None};
    }

    // L2 miss: snoop peers for an owner; handle peer state changes.
    // The presence mask narrows the snoop to caches actually holding
    // the block instead of probing every L2 on the bus.
    LineMeta &meta = meta_[block];
    const MissClass mclass = classifyMiss(meta, group);
    bool peer_supplied = false;
    const SharerSet peers = meta.presenceMask;
    peers.forEachSetExcept(group, [&](unsigned g) {
        CacheLine *peer = l2_[g].find(ref.addr);
        sim_assert(peer, "presence mask out of sync (snoop)");
        if (isOwner(peer->state)) {
            peer_supplied = true;
            ++*copybacksSupplied_;
        }
        if (want_write) {
            if (!faultFires(FaultPlan::Kind::DropInvalidate, block, g))
                invalidateForRemoteWrite(g, *peer, meta);
        } else if (!faultFires(FaultPlan::Kind::KeepOwnerOnSnoop, block,
                               g)) {
            peer->state = peerAfterGetS(peer->state);
        }
    });

    const sim::Tick occupancy = lat_.busOccupancy;
    const sim::Tick queue = bus_.acquire(now, occupancy);
    sim::Tick latency;
    ServedBy served;
    if (peer_supplied) {
        latency = lat_.cacheToCache + queue;
        served = ServedBy::Peer;
        ++st.c2cTransfers;
        if (trackComm_)
            c2cPerLine_.add(block);
        if (timeline_)
            timeline_->add(now);
    } else {
        latency = lat_.memory + queue;
        served = ServedBy::Memory;
    }

    switch (mclass) {
      case MissClass::Cold: ++st.missCold; break;
      case MissClass::Coherence: ++st.missCoherence; break;
      case MissClass::CapacityConflict: ++st.missCapacity; break;
      case MissClass::None: panic("miss without class"); break;
    }
    recordMissTail(ref, mclass, is_instr);

    CacheLine &victim = l2.victim(ref.addr);
    if (victim.valid())
        evictLine(group, victim, ref.cpu, now);
    l2.install(victim, ref.addr,
               want_write ? CoherenceState::Modified
                          : CoherenceState::Shared);
    meta.presenceMask.set(group);

    return {latency, served, mclass};
}

void
Hierarchy::recordMissTail(const MemRef &ref, MissClass mclass,
                          bool is_instr)
{
    CacheStats &st = stats_[ref.cpu];
    for (Region &region : regions_) {
        if (ref.addr >= region.base &&
            ref.addr < region.base + region.bytes) {
            switch (mclass) {
              case MissClass::Cold: ++region.missCold; break;
              case MissClass::Coherence:
                ++region.missCoherence;
                break;
              case MissClass::CapacityConflict:
                ++region.missCapacity;
                break;
              case MissClass::None: break;
            }
            break;
        }
    }
    if (is_instr)
        ++st.instrMisses;
    else
        ++st.dataMisses;
}

AccessResult
Hierarchy::l2BlockStore(const MemRef &ref, sim::Tick now)
{
    if (dir_)
        return l2BlockStoreDirectory(ref, now);

    CacheStats &st = stats_[ref.cpu];
    const unsigned group = groupOf(ref.cpu);
    CacheArray &l2 = l2_[group];
    const Addr block = l2.blockAddr(ref.addr);

    ++st.l2Accesses;
    if (trackComm_)
        recordTouched(meta_[block]);

    if (CacheLine *line = l2.find(ref.addr)) {
        if (canWrite(line->state)) {
            // Streaming store: do not promote the line.
            ++st.l2Hits;
            return {lat_.l2Hit, ServedBy::L2, MissClass::None};
        }
        // Shared or owned: invalidate peers, upgrade in place. The
        // whole line is overwritten, so no data moves.
        LineMeta &meta = meta_[block];
        const SharerSet peers = meta.presenceMask;
        peers.forEachSetExcept(group, [&](unsigned g) {
            CacheLine *peer = l2_[g].find(ref.addr);
            sim_assert(peer, "presence mask out of sync (blockstore)");
            if (!faultFires(FaultPlan::Kind::DropInvalidate, block, g))
                invalidateForRemoteWrite(g, *peer, meta);
        });
        const sim::Tick queue = bus_.acquire(now, lat_.busAddrOccupancy);
        line->state = CoherenceState::Modified;
        l2.touch(*line);
        return {lat_.l2Hit + queue, ServedBy::L2, MissClass::None};
    }

    // Not present: claim the line without fetching. A peer's dirty
    // copy is dropped (it is wholly overwritten), not copied back.
    LineMeta &meta = meta_[block];
    const SharerSet peers = meta.presenceMask;
    peers.forEachSetExcept(group, [&](unsigned g) {
        CacheLine *peer = l2_[g].find(ref.addr);
        sim_assert(peer, "presence mask out of sync (blockstore claim)");
        if (!faultFires(FaultPlan::Kind::DropInvalidate, block, g))
            invalidateForRemoteWrite(g, *peer, meta);
    });
    const sim::Tick queue = bus_.acquire(now, lat_.busAddrOccupancy);
    meta.everCachedMask.set(group);
    meta.invalidatedMask.clear(group);

    CacheLine &victim = l2.victim(ref.addr);
    if (victim.valid())
        evictLine(group, victim, ref.cpu, now);
    l2.installStreaming(victim, ref.addr, CoherenceState::Modified);
    meta.presenceMask.set(group);
    return {lat_.l2Hit + queue, ServedBy::L2, MissClass::None};
}

MissClass
Hierarchy::classifyMiss(LineMeta &meta, unsigned group)
{
    MissClass mclass;
    if (!meta.everCachedMask.test(group)) {
        mclass = MissClass::Cold;
    } else if (meta.invalidatedMask.test(group)) {
        mclass = MissClass::Coherence;
    } else {
        mclass = MissClass::CapacityConflict;
    }
    meta.everCachedMask.set(group);
    meta.invalidatedMask.clear(group);
    return mclass;
}

void
Hierarchy::recordTouched(LineMeta &meta)
{
    if (!(meta.flags & LineMeta::Touched)) {
        meta.flags |= LineMeta::Touched;
        ++touchedCount_;
    }
}

void
Hierarchy::evictLine(unsigned group, CacheLine &victim, unsigned req_cpu,
                     sim::Tick now)
{
    if (needsWriteback(victim.state)) {
        ++stats_[req_cpu].writebacks;
        if (!dir_)
            bus_.acquire(now, lat_.busOccupancy);
    }
    // Replacements notify the home so the sharer vector stays exact.
    if (dir_)
        dirHandlePut(group, victim);
    // Record replacement (not invalidation) as the removal cause.
    LineMeta *meta = meta_.find(victim.tag);
    sim_assert(meta, "evicting a line with no metadata");
    meta->invalidatedMask.clear(group);
    meta->presenceMask.clear(group);
    backInvalidateL1s(group, victim.tag);
    victim.state = CoherenceState::Invalid;
}

void
Hierarchy::dirHandlePut(unsigned group, const CacheLine &victim)
{
    DirEntry &entry = dir_->entry(victim.tag);
    ++dir_->putNotices();
    if (victim.state == CoherenceState::Modified)
        ++dir_->writebacksToHome();
    if (entry.owner == static_cast<std::int32_t>(group))
        entry.owner = -1;
    entry.sharers.clear(group);
}

void
Hierarchy::invalidateForRemoteWrite(unsigned group, CacheLine &line,
                                    LineMeta &meta)
{
    ++*invalidations_;
    meta.invalidatedMask.set(group);
    meta.presenceMask.clear(group);
    backInvalidateL1s(group, line.tag);
    line.state = CoherenceState::Invalid;
}

void
Hierarchy::backInvalidateL1s(unsigned group, Addr block)
{
    if (faultFires(FaultPlan::Kind::SkipL1BackInvalidate, block, group))
        return;
    const unsigned first = group * cfg_.cpusPerL2;
    const unsigned last = first + cfg_.cpusPerL2;
    for (unsigned c = first; c < last && c < cfg_.totalCpus; ++c) {
        if (CacheLine *line = l1i_[c].find(block)) {
            line->state = CoherenceState::Invalid;
            ++*backInvalidations_;
        }
        if (CacheLine *line = l1d_[c].find(block)) {
            line->state = CoherenceState::Invalid;
            ++*backInvalidations_;
        }
    }
}

CacheStats
Hierarchy::aggregateRange(unsigned lo, unsigned hi) const
{
    sim_assert(lo <= hi && hi < cfg_.totalCpus, "bad CPU range");
    CacheStats out;
    for (unsigned c = lo; c <= hi; ++c)
        out.accumulate(stats_[c]);
    return out;
}

CacheStats
Hierarchy::aggregateAll() const
{
    return aggregateRange(0, cfg_.totalCpus - 1);
}

void
Hierarchy::resetStats()
{
    annotate(TraceAnnotation::StatsReset);
    for (auto &st : stats_)
        st = CacheStats();
    bus_.reset();
}

void
Hierarchy::setCommunicationTracking(bool on)
{
    trackComm_ = on;
    if (!on)
        resetCommunicationTracking();
}

void
Hierarchy::resetCommunicationTracking()
{
    annotate(TraceAnnotation::CommTrackReset);
    c2cPerLine_.reset();
    touchedCount_ = 0;
    meta_.forEach([](Addr, LineMeta &meta) {
        meta.flags &= ~LineMeta::Touched;
    });
}

void
Hierarchy::enableTimeline(sim::Tick bin_width, unsigned num_bins)
{
    timeline_ = std::make_unique<TimelineSampler>(bin_width, num_bins);
}

CoherenceState
Hierarchy::peekState(unsigned cpu, Addr addr) const
{
    const CacheLine *line = l2_[groupOf(cpu)].find(addr);
    return line ? line->state : CoherenceState::Invalid;
}

void
Hierarchy::defineRegion(const std::string &name, Addr base,
                        std::uint64_t bytes)
{
    regions_.push_back({name, base, bytes, 0, 0, 0});
}

void
Hierarchy::resetRegionStats()
{
    annotate(TraceAnnotation::RegionStatsReset);
    for (Region &region : regions_) {
        region.missCold = 0;
        region.missCoherence = 0;
        region.missCapacity = 0;
    }
}

void
Hierarchy::invalidateAll()
{
    annotate(TraceAnnotation::InvalidateAll);
    for (auto &c : l1i_)
        c.invalidateAll();
    for (auto &c : l1d_)
        c.invalidateAll();
    for (auto &c : l2_)
        c.invalidateAll();
    // Drop all removal-cause and presence metadata (subsequent misses
    // classify as cold again) but keep communication-tracking state,
    // which is reset only by resetCommunicationTracking().
    std::vector<Addr> touched;
    meta_.forEach([&](Addr block, LineMeta &meta) {
        if (meta.flags & LineMeta::Touched)
            touched.push_back(block);
    });
    meta_.clear();
    for (Addr block : touched)
        meta_[block].flags = LineMeta::Touched;
    if (dir_)
        dir_->clear();
}

} // namespace middlesim::mem
