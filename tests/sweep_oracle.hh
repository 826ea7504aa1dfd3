/**
 * @file
 * The test oracle of the multi-size cache sweep: every configuration
 * simulated independently with its own CacheArray, plus the clustered
 * reference stream the sweep tests feed it. mem::SweepSimulator's
 * single-pass engines must match it bit for bit.
 */

#ifndef TESTS_SWEEP_ORACLE_HH
#define TESTS_SWEEP_ORACLE_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "mem/cache_array.hh"
#include "mem/memref.hh"
#include "mem/sweep.hh"
#include "sim/rng.hh"

namespace middlesim::test
{

/** Reference model: every configuration simulated independently. */
struct NaiveBank
{
    std::vector<mem::CacheArray> caches;
    std::vector<std::uint64_t> misses;
    std::uint64_t accesses = 0;

    explicit NaiveBank(const std::vector<sim::CacheParams> &configs)
        : misses(configs.size(), 0)
    {
        for (const auto &params : configs)
            caches.emplace_back(params);
    }

    void
    access(mem::Addr addr, bool count_misses)
    {
        ++accesses;
        for (std::size_t i = 0; i < caches.size(); ++i) {
            mem::CacheArray &cache = caches[i];
            if (mem::CacheLine *line = cache.find(addr)) {
                cache.touch(*line);
            } else {
                if (count_misses)
                    ++misses[i];
                mem::CacheLine &frame = cache.victim(addr);
                cache.install(frame, addr,
                              mem::CoherenceState::Shared);
            }
        }
    }

    /** Zero the counters; cache contents stay warm. */
    void
    resetCounters()
    {
        accesses = 0;
        misses.assign(misses.size(), 0);
    }
};

/** Reference model of the full split sweep. */
struct NaiveSweep
{
    NaiveBank ibank;
    NaiveBank dbank;

    explicit NaiveSweep(const std::vector<sim::CacheParams> &configs)
        : ibank(configs), dbank(configs)
    {
    }

    void
    access(const mem::MemRef &ref)
    {
        if (ref.type == mem::AccessType::IFetch)
            ibank.access(ref.addr, true);
        else
            dbank.access(ref.addr,
                         ref.type != mem::AccessType::BlockStore);
    }

    void
    resetCounters()
    {
        ibank.resetCounters();
        dbank.resetCounters();
    }
};

/** A sweep bank's results equal the oracle's, config by config. */
inline void
expectBankMatches(const std::vector<mem::SweepResult> &res,
                  const NaiveBank &naive, const std::string &what)
{
    ASSERT_EQ(res.size(), naive.misses.size()) << what;
    for (std::size_t i = 0; i < res.size(); ++i) {
        EXPECT_EQ(res[i].misses, naive.misses[i]) << what << " " << i;
        EXPECT_EQ(res[i].accesses, naive.accesses) << what << " " << i;
    }
}

/** Both banks of `sweep` equal the oracle's. */
inline void
expectSweepMatches(const mem::SweepSimulator &sweep,
                   const NaiveSweep &naive)
{
    expectBankMatches(sweep.icacheResults(), naive.ibank, "icache");
    expectBankMatches(sweep.dcacheResults(), naive.dbank, "dcache");
}

/** A clustered trace: repeats, streaming runs, random far jumps. */
inline mem::MemRef
nextRef(sim::Rng &rng, mem::Addr &cursor)
{
    const auto move = rng.uniform(100);
    if (move < 35) {
        // Stay in the current block (different byte offset).
    } else if (move < 75) {
        cursor += 64; // sequential run
    } else {
        cursor = rng.uniform(32 * 1024) * 64; // far jump
    }
    const auto kind = rng.uniform(100);
    mem::AccessType type = mem::AccessType::Load;
    if (kind < 35)
        type = mem::AccessType::IFetch;
    else if (kind < 45)
        type = mem::AccessType::Store;
    else if (kind < 50)
        type = mem::AccessType::BlockStore;
    return {cursor + rng.uniform(64), type, 0};
}

} // namespace middlesim::test

#endif // TESTS_SWEEP_ORACLE_HH
