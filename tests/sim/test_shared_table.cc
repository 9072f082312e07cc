/**
 * @file
 * The shared plain/THP table: a pair whose mapping has no promotable
 * 2MB block hands out its plain (all-4KB) table as its THP table too.
 * Pins the predicate against the built THP layout on every paper
 * workload and scenario, and runs THP and Base cells concurrently over
 * one shared table (this suite also runs under TSan).
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "os/table_builder.hh"
#include "sim/experiment.hh"
#include "trace/workload.hh"

namespace atlb
{
namespace
{

SimOptions
smallOptions()
{
    SimOptions opts;
    opts.accesses = 20'000;
    opts.seed = 1;
    opts.footprint_scale = 0.02;
    return opts;
}

TEST(SharedTable, PredicateMatchesThpLayoutOnEveryPair)
{
    const SimOptions opts = smallOptions();
    unsigned shared = 0;
    unsigned distinct = 0;
    for (const std::string &workload : paperWorkloadNames()) {
        for (const ScenarioKind kind : allScenarios) {
            SCOPED_TRACE(workload + "/" + scenarioName(kind));
            const CellPairState pair(opts, workload, kind);
            const bool promotable = hasPromotableHugeBlock(pair.map());
            const PageTable thp = buildPageTable(pair.map(), true);
            EXPECT_EQ(promotable, thp.mapped2M() != 0);
            EXPECT_EQ(promotable, &pair.thpTable() != &pair.plainTable());
            if (promotable)
                ++distinct;
            else
                ++shared;
        }
    }
    EXPECT_EQ(shared + distinct, 14u * 6u);
    // Both branches must be exercised for the check to mean anything.
    EXPECT_GT(shared, 0u);
    EXPECT_GT(distinct, 0u);
}

TEST(SharedTable, ConcurrentCellsOverOneSharedTable)
{
    const SimOptions opts = smallOptions();
    for (const ScenarioKind kind :
         {ScenarioKind::LowContig, ScenarioKind::Eager}) {
        SCOPED_TRACE(scenarioName(kind));
        const CellPairState pair(opts, "mcf", kind);
        const bool shared = !hasPromotableHugeBlock(pair.map());
        EXPECT_EQ(shared, kind == ScenarioKind::LowContig);

        // Reference: each flavour built privately, direct stream.
        const PageTable plain = buildPageTable(pair.map(), false);
        const PageTable thp = buildPageTable(pair.map(), true);
        const SimResult want_base =
            runSchemeCell(opts, pair.spec(), kind, pair.map(), plain,
                          Scheme::Base, 0);
        const SimResult want_thp = runSchemeCell(
            opts, pair.spec(), kind, pair.map(), thp, Scheme::Thp, 0);

        // Every worker asks for both flavours first, racing the lazy
        // builds, then runs one cell over what it got.
        constexpr unsigned workers = 4;
        std::vector<const PageTable *> plain_seen(workers);
        std::vector<const PageTable *> thp_seen(workers);
        std::vector<SimResult> got(workers);
        std::vector<std::thread> threads;
        for (unsigned w = 0; w < workers; ++w) {
            threads.emplace_back([&, w] {
                thp_seen[w] = &pair.thpTable();
                plain_seen[w] = &pair.plainTable();
                got[w] = w % 2 == 0
                             ? runSchemeCell(opts, pair, *thp_seen[w],
                                             Scheme::Thp, 0)
                             : runSchemeCell(opts, pair, *plain_seen[w],
                                             Scheme::Base, 0);
            });
        }
        for (std::thread &thread : threads)
            thread.join();

        for (unsigned w = 0; w < workers; ++w) {
            SCOPED_TRACE(w);
            EXPECT_EQ(plain_seen[w], plain_seen[0]);
            EXPECT_EQ(thp_seen[w], thp_seen[0]);
            EXPECT_EQ(thp_seen[w] == plain_seen[w], shared);
            const SimResult &want = w % 2 == 0 ? want_thp : want_base;
            EXPECT_EQ(got[w].scheme, want.scheme);
            EXPECT_EQ(got[w].stats.accesses, want.stats.accesses);
            EXPECT_EQ(got[w].stats.l1_hits, want.stats.l1_hits);
            EXPECT_EQ(got[w].stats.l2_regular_hits,
                      want.stats.l2_regular_hits);
            EXPECT_EQ(got[w].stats.page_walks, want.stats.page_walks);
        }
    }
}

} // namespace
} // namespace atlb
