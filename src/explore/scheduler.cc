#include "explore/scheduler.hh"

#include "sim/log.hh"
#include "trace/replay.hh"

namespace middlesim::explore
{

ExploreScheduler::ExploreScheduler(const trace::TraceHeader &header,
                                   const Streams &streams,
                                   const mem::FaultPlan *fault)
    : header_(header), streams_(&streams), fault_(fault),
      totalRefs_(totalRefs(streams)), pos_(streams.size(), 0)
{
    executed_.reserve(totalRefs_);
    reset();
}

void
ExploreScheduler::reset()
{
    hierarchy_ = trace::hierarchyFor(header_);
    if (fault_)
        hierarchy_->setFaultPlan(fault_);
    check::CheckOptions opts;
    opts.failFast = false;
    opts.maxViolations = 1;
    report_ = std::make_unique<check::CheckReport>(opts);
    checker_ =
        std::make_unique<check::MemChecker>(*hierarchy_, *report_);
    hierarchy_->attachTap(checker_.get());
    std::fill(pos_.begin(), pos_.end(), 0);
    executedCount_ = 0;
    executed_.clear();
}

void
ExploreScheduler::step(unsigned cpu)
{
    sim_assert(hasNext(cpu), "explore: stepping an exhausted CPU");
    sim_assert(report_->clean(),
               "explore: stepping a violated scheduler");
    const mem::MemRef &ref = (*streams_)[cpu][pos_[cpu]];
    const sim::Tick tick = tickOf(executedCount_);
    hierarchy_->access(ref, tick);
    ++pos_[cpu];
    ++executedCount_;
    trace::TraceRecord rec;
    rec.isRef = true;
    rec.ref = ref;
    rec.tick = tick;
    executed_.push_back(rec);
}

std::uint64_t
ExploreScheduler::capacityMisses() const
{
    return hierarchy_->aggregateAll().missCapacity;
}

} // namespace middlesim::explore
