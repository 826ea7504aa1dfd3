#include "mem/sweep.hh"

#include "sim/log.hh"

namespace middlesim::mem
{

namespace
{

/**
 * An inclusion chain needs identical block size and associativity and
 * set counts that divide each successor's (set refinement); LRU then
 * guarantees each cache's contents are a subset of every larger one's.
 */
bool
isInclusionChain(const std::vector<sim::CacheParams> &configs)
{
    for (std::size_t i = 1; i < configs.size(); ++i) {
        const auto &prev = configs[i - 1];
        const auto &cur = configs[i];
        if (cur.blockBytes != prev.blockBytes ||
            cur.assoc != prev.assoc ||
            cur.numSets() < prev.numSets() ||
            cur.numSets() % prev.numSets() != 0) {
            return false;
        }
    }
    return true;
}

/** All geometries fully associative with one common block size. */
bool
isFullyAssociativeLadder(const std::vector<sim::CacheParams> &configs)
{
    if (configs.empty())
        return false;
    const unsigned block = configs.front().blockBytes;
    if (block == 0 || (block & (block - 1)) != 0)
        return false;
    for (const sim::CacheParams &p : configs) {
        if (p.blockBytes != block || p.numSets() != 1)
            return false;
    }
    return true;
}

} // namespace

SweepSimulator::SweepSimulator(
    const std::vector<sim::CacheParams> &configs)
    : inclusionChain_(isInclusionChain(configs))
{
    // The fully-associative check comes first: such ladders also pass
    // the refinement check when the associativity is small, but the
    // O(log n) tracker scales to any capacity.
    const bool ladder = isFullyAssociativeLadder(configs);
    if (!ladder && !stackdist::RefinementSweep::suitable(configs))
        fatal("sweep: configurations admit no single-pass engine "
              "(need one power-of-two block size and power-of-two "
              "set counts with at most ",
              stackdist::RefinementSweep::kMaxAssoc,
              " ways, or a fully-associative ladder)");

    std::vector<std::uint64_t> capacities;
    for (const auto &params : configs)
        capacities.push_back(params.numBlocks());
    for (Bank *bank : {&ibank_, &dbank_}) {
        for (const auto &params : configs)
            bank->results.push_back({params, 0, 0});
        if (ladder) {
            bank->reuse =
                std::make_unique<stackdist::ReuseDistanceTracker>(
                    capacities, configs.front().blockBytes);
        } else {
            bank->refine =
                std::make_unique<stackdist::RefinementSweep>(configs);
        }
    }
}

std::vector<sim::CacheParams>
SweepSimulator::paperSweep()
{
    std::vector<sim::CacheParams> configs;
    for (std::uint64_t kb = 64; kb <= 16 * 1024; kb *= 2)
        configs.push_back({kb * 1024, 4, 64});
    return configs;
}

const char *
SweepSimulator::engineName() const
{
    return ibank_.refine ? "stackdist-refinement" : "stackdist-reuse";
}

const std::vector<std::uint64_t> *
SweepSimulator::icriticalHistogram() const
{
    return inclusionChain_ && ibank_.refine
        ? &ibank_.refine->criticalHistogram()
        : nullptr;
}

const std::vector<std::uint64_t> *
SweepSimulator::dcriticalHistogram() const
{
    return inclusionChain_ && dbank_.refine
        ? &dbank_.refine->criticalHistogram()
        : nullptr;
}

void
SweepSimulator::accessBank(Bank &bank, Addr addr, bool count_misses)
{
    if (bank.refine)
        bank.refine->access(addr, count_misses);
    else
        bank.reuse->access(addr, count_misses);
}

void
SweepSimulator::access(const MemRef &ref)
{
    if (ref.type == AccessType::IFetch) {
        accessBank(ibank_, ref.addr, /*count_misses=*/true);
    } else {
        // Block-initializing stores install without a fetch: counted
        // as an access, never a miss.
        accessBank(dbank_, ref.addr,
                   /*count_misses=*/ref.type != AccessType::BlockStore);
    }
}

void
SweepSimulator::annotation(TraceAnnotation kind, unsigned, sim::Tick,
                           std::uint64_t arg)
{
    if (kind == TraceAnnotation::StatsReset)
        resetCounters();
    else if (kind == TraceAnnotation::Instructions)
        countInstructions(arg);
}

const std::vector<SweepResult> &
SweepSimulator::syncedResults(const Bank &bank) const
{
    for (std::size_t i = 0; i < bank.results.size(); ++i) {
        bank.results[i].accesses = bank.refine
            ? bank.refine->accesses()
            : bank.reuse->accesses();
        bank.results[i].misses = bank.refine ? bank.refine->misses(i)
                                             : bank.reuse->misses(i);
    }
    return bank.results;
}

const std::vector<SweepResult> &
SweepSimulator::icacheResults() const
{
    return syncedResults(ibank_);
}

const std::vector<SweepResult> &
SweepSimulator::dcacheResults() const
{
    return syncedResults(dbank_);
}

double
SweepSimulator::imissPer1000(std::size_t i) const
{
    return icacheResults().at(i).missesPer1000(instructions_);
}

double
SweepSimulator::dmissPer1000(std::size_t i) const
{
    return dcacheResults().at(i).missesPer1000(instructions_);
}

void
SweepSimulator::resetCounters()
{
    // Cache contents survive a counter reset (the warmup boundary),
    // and so does each engine's repeated-block memo: the memoized
    // block is still resident and still MRU, so a post-reset repeat
    // is correctly scored as a hit (regression tested in
    // tests/test_sweep.cpp).
    for (Bank *bank : {&ibank_, &dbank_}) {
        if (bank->refine)
            bank->refine->resetCounters();
        else
            bank->reuse->resetCounters();
    }
    instructions_ = 0;
}

void
SweepSimulator::reset()
{
    for (Bank *bank : {&ibank_, &dbank_}) {
        if (bank->refine)
            bank->refine->reset();
        else
            bank->reuse->reset();
    }
    instructions_ = 0;
}

} // namespace middlesim::mem
