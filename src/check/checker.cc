#include "check/checker.hh"

#include <atomic>
#include <cstdlib>

#include "check/jvm_checker.hh"
#include "check/mem_checker.hh"
#include "check/sched_checker.hh"
#include "sim/parse.hh"

namespace middlesim::check
{

Checker::Checker(mem::Hierarchy &hierarchy, os::Scheduler &sched,
                 jvm::Jvm &jvm, unsigned gc_cpu,
                 const CheckOptions &opts)
    : hierarchy_(&hierarchy), sched_(&sched), jvm_(&jvm),
      report_(opts)
{
    mem_ = std::make_unique<MemChecker>(hierarchy, report_);
    schedCk_ = std::make_unique<SchedChecker>(sched, report_);
    jvmCk_ = std::make_unique<JvmChecker>(jvm, gc_cpu, report_,
                                          mem_.get());
    hierarchy_->attachTap(mem_.get());
    sched_->setObserver(schedCk_.get());
    jvm_->setObserver(jvmCk_.get());
}

Checker::Checker(mem::Hierarchy &hierarchy, const CheckOptions &opts)
    : hierarchy_(&hierarchy), report_(opts)
{
    mem_ = std::make_unique<MemChecker>(hierarchy, report_);
    hierarchy_->attachTap(mem_.get());
}

Checker::~Checker()
{
    hierarchy_->detachTap(mem_.get());
    if (sched_)
        sched_->setObserver(nullptr);
    if (jvm_)
        jvm_->setObserver(nullptr);
}

void
Checker::finalize(sim::Tick now)
{
    mem_->auditFull(now);
}

namespace
{

/**
 * -1 = not yet resolved from the environment. Atomic: pool workers
 * building Systems may resolve it concurrently (to the same value).
 */
std::atomic<int> &
checkState()
{
    static std::atomic<int> state{-1};
    return state;
}

} // namespace

bool
checkingEnabled()
{
    std::atomic<int> &s = checkState();
    if (s < 0) {
        const char *env = std::getenv("MIDDLESIM_CHECK");
        s = env && env[0] != '\0'
                ? static_cast<int>(
                      sim::parseUnsigned("MIDDLESIM_CHECK", env, 0, 1))
                : 0;
    }
    return s == 1;
}

void
setCheckingEnabled(bool on)
{
    checkState() = on ? 1 : 0;
}

CheckOptions &
defaultCheckOptions()
{
    static CheckOptions opts;
    return opts;
}

} // namespace middlesim::check
