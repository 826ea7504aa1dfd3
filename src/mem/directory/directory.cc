#include "mem/directory/directory.hh"

namespace middlesim::mem
{

DirectoryController::DirectoryController(unsigned num_groups)
    : entries_(1u << 16, DirEntry(num_groups))
{
}

void
DirectoryController::configure(const sim::MachineConfig &cfg)
{
    cfg_ = cfg;
    slotsPerHome_ = cfg.dirOccupancy;
    if (!contended())
        return;
    homes_.assign(cfg.numaNodes, HomeState());
    for (HomeState &h : homes_)
        h.slotBusyUntil.assign(slotsPerHome_, 0);
    // Four directed link slots per node (+x, -x, +y, -y); the ring
    // uses only the X pair.
    links_.assign(4u * cfg.numaNodes, LinkState());
}

bool
DirectoryController::tryAcquireHome(unsigned home, sim::Tick now,
                                    sim::Tick service,
                                    sim::Tick &queue_delay)
{
    queue_delay = 0;
    if (!contended())
        return true;
    HomeState &h = homes_[home];
    std::size_t freest = 0;
    for (std::size_t s = 1; s < h.slotBusyUntil.size(); ++s) {
        if (h.slotBusyUntil[s] < h.slotBusyUntil[freest])
            freest = s;
    }
    const sim::Tick busy_until = h.slotBusyUntil[freest];
    if (busy_until > now && busy_until - now <= kDirNackHorizon)
        return false;
    queue_delay = static_cast<sim::Tick>(
        static_cast<double>(service) * 0.5 * h.utilization /
        (1.0 - h.utilization));
    h.slotBusyUntil[freest] = now + queue_delay + service;
    h.epochBusy += service;
    stats_.occupancyBusyCycles += service;
    stats_.occupancyQueueDelay += queue_delay;
    return true;
}

sim::Tick
DirectoryController::walkAxis(unsigned &node, unsigned coord,
                              unsigned target, unsigned size,
                              unsigned stride, unsigned fwd_dir,
                              sim::Tick per_hop)
{
    sim::Tick total = 0;
    while (coord != target) {
        // Shorter way around the axis ring; forward on a tie.
        const unsigned fwd = (target + size - coord) % size;
        const bool forward = fwd <= size - fwd;
        const unsigned dirn = forward ? fwd_dir : fwd_dir + 1;
        LinkState &link = links_[4u * node + dirn];
        const sim::Tick delay = static_cast<sim::Tick>(
            static_cast<double>(per_hop) * 0.5 * link.utilization /
            (1.0 - link.utilization));
        link.epochBusy += per_hop;
        stats_.linkBusyCycles += per_hop;
        stats_.linkQueueDelay += delay;
        total += delay;
        if (forward) {
            coord = (coord + 1) % size;
            node = coord == 0 ? node + stride - size * stride
                              : node + stride;
        } else {
            coord = (coord + size - 1) % size;
            node = coord == size - 1 ? node - stride + size * stride
                                     : node - stride;
        }
    }
    return total;
}

sim::Tick
DirectoryController::linkTraverse(unsigned from, unsigned to,
                                  sim::Tick per_hop)
{
    if (!contended() || from == to)
        return 0;
    unsigned node = from;
    sim::Tick total = 0;
    if (cfg_.topology == sim::Topology::Mesh) {
        const unsigned w = cfg_.meshWidth();
        const unsigned h = cfg_.numaNodes / w;
        total += walkAxis(node, from % w, to % w, w, 1, 0, per_hop);
        total += walkAxis(node, node / w, to / w, h, w, 2, per_hop);
    } else {
        total += walkAxis(node, from, to, cfg_.numaNodes, 1, 0,
                          per_hop);
    }
    return total;
}

void
DirectoryController::advanceEpoch(sim::Tick epoch_len)
{
    if (!contended() || epoch_len == 0)
        return;
    const auto close = [epoch_len](sim::Tick &busy, double &util) {
        const double rho = static_cast<double>(busy) /
                           static_cast<double>(epoch_len);
        util = std::min(rho, 0.92);
        busy = 0;
    };
    for (HomeState &h : homes_)
        close(h.epochBusy, h.utilization);
    for (LinkState &link : links_)
        close(link.epochBusy, link.utilization);
}

void
DirectoryController::recordMissLatency(sim::Tick latency)
{
    if (!contended())
        return;
    unsigned b = 0;
    while (b < kDirLatBuckets - 1 && latency > kDirLatEdges[b])
        ++b;
    ++stats_.latBuckets[b];
}

void
DirectoryController::clear()
{
    entries_.clear();
}

} // namespace middlesim::mem
