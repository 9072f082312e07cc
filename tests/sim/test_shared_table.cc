/**
 * @file
 * The shared plain/THP table: a pair whose mapping has no promotable
 * 2MB block hands out its plain (all-4KB) table as its THP table too.
 * Pins the predicate against the built THP layout on every paper
 * workload and scenario, and runs THP, Base, Anchor and Static Ideal
 * cells concurrently over one pair's tables (this suite also runs under
 * TSan).
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "os/table_builder.hh"
#include "sim/experiment.hh"
#include "sim/parallel_runner.hh"
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
    // Base and THP cells race Anchor cells (the dynamic distance and an
    // override) and a Static Ideal cell over the pair's tables, which
    // no cell writes: the anchor schemes read the THP table itself.
    const SimOptions opts = smallOptions();
    const std::vector<CellJob> jobs = {
        {"mcf", ScenarioKind::Demand, Scheme::Thp},
        {"mcf", ScenarioKind::Demand, Scheme::Base},
        {"mcf", ScenarioKind::Demand, Scheme::Anchor},
        {"mcf", ScenarioKind::Demand, Scheme::Anchor, 64},
        {"mcf", ScenarioKind::Demand, Scheme::AnchorIdeal},
        {"mcf", ScenarioKind::Demand, Scheme::Thp},
    };
    for (const ScenarioKind kind :
         {ScenarioKind::LowContig, ScenarioKind::Eager}) {
        SCOPED_TRACE(scenarioName(kind));
        const CellPairState pair(opts, "mcf", kind);
        const bool shared = !hasPromotableHugeBlock(pair.map());
        EXPECT_EQ(shared, kind == ScenarioKind::LowContig);

        // Reference: the serial path, with its own pair state.
        ExperimentContext serial(opts);
        std::vector<SimResult> want;
        for (const CellJob &job : jobs) {
            want.push_back(serial.run(job.workload, kind, job.scheme,
                                      job.distance_override));
        }

        // Every worker asks for both flavours first, racing the lazy
        // builds, then runs one cell of the pair.
        const std::size_t workers = jobs.size();
        std::vector<const PageTable *> plain_seen(workers);
        std::vector<const PageTable *> thp_seen(workers);
        std::vector<SimResult> got(workers);
        std::vector<std::thread> threads;
        for (std::size_t w = 0; w < workers; ++w) {
            threads.emplace_back([&, w] {
                thp_seen[w] = &pair.thpTable();
                plain_seen[w] = &pair.plainTable();
                CellJob job = jobs[w];
                job.scenario = kind;
                got[w] = runCellJob(opts, pair, job);
            });
        }
        for (std::thread &thread : threads)
            thread.join();

        for (std::size_t w = 0; w < workers; ++w) {
            SCOPED_TRACE(w);
            EXPECT_EQ(plain_seen[w], plain_seen[0]);
            EXPECT_EQ(thp_seen[w], thp_seen[0]);
            EXPECT_EQ(thp_seen[w] == plain_seen[w], shared);
            EXPECT_EQ(got[w].scheme, want[w].scheme);
            EXPECT_EQ(got[w].anchor_distance, want[w].anchor_distance);
            EXPECT_EQ(got[w].stats.accesses, want[w].stats.accesses);
            EXPECT_EQ(got[w].stats.l1_hits, want[w].stats.l1_hits);
            EXPECT_EQ(got[w].stats.l2_regular_hits,
                      want[w].stats.l2_regular_hits);
            EXPECT_EQ(got[w].stats.coalesced_hits,
                      want[w].stats.coalesced_hits);
            EXPECT_EQ(got[w].stats.page_walks, want[w].stats.page_walks);
            EXPECT_EQ(got[w].stats.translation_cycles,
                      want[w].stats.translation_cycles);
        }
        // The anchor cells must have used their anchors.
        EXPECT_GT(got[2].stats.coalesced_hits, 0u);
        EXPECT_EQ(got[3].anchor_distance, 64u);
    }
}

} // namespace
} // namespace atlb
