/**
 * @file
 * Determinism regression tests for the parallel sweep engine: for any
 * thread count, results must be identical — field for field — to the
 * serial ExperimentContext path. This is the guarantee that lets every
 * figure bench run parallel by default (ISSUE: THREADS=1 vs THREADS=8
 * byte-identical output).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "os/distance_selector.hh"
#include "os/table_builder.hh"
#include "sim/parallel_runner.hh"

namespace atlb
{
namespace
{

SimOptions
quickOptions(unsigned threads)
{
    SimOptions opts;
    opts.accesses = 15'000;
    opts.seed = 42;
    opts.footprint_scale = 0.02; // shrink footprints for test speed
    opts.threads = threads;
    return opts;
}

/** 3 workloads x 3 scenarios x all schemes: the regression grid. */
std::vector<CellJob>
regressionGrid()
{
    const std::vector<std::string> workloads = {"sphinx3", "omnetpp",
                                                "canneal"};
    const std::vector<ScenarioKind> scenarios = {
        ScenarioKind::Demand, ScenarioKind::MedContig,
        ScenarioKind::MaxContig};
    std::vector<CellJob> jobs;
    for (const auto &workload : workloads)
        for (const ScenarioKind scenario : scenarios)
            for (const Scheme scheme : allSchemes)
                jobs.push_back({workload, scenario, scheme, {}});
    return jobs;
}

void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.scenario, b.scenario);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.anchor_distance, b.anchor_distance);
    EXPECT_EQ(a.stats.accesses, b.stats.accesses);
    EXPECT_EQ(a.stats.l1_hits, b.stats.l1_hits);
    EXPECT_EQ(a.stats.l2_regular_hits, b.stats.l2_regular_hits);
    EXPECT_EQ(a.stats.coalesced_hits, b.stats.coalesced_hits);
    EXPECT_EQ(a.stats.page_walks, b.stats.page_walks);
    EXPECT_EQ(a.stats.translation_cycles, b.stats.translation_cycles);
    EXPECT_EQ(a.stats.shootdowns, b.stats.shootdowns);
    EXPECT_EQ(a.stats.shootdown_cycles, b.stats.shootdown_cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.l2_hit_cycles, b.l2_hit_cycles);
    EXPECT_EQ(a.coalesced_cycles, b.coalesced_cycles);
    EXPECT_EQ(a.walk_cycles, b.walk_cycles);
}

/**
 * Every Static Ideal candidate of a pair, each run to the end: a fresh
 * anchor table per distance and the direct stream, so the reference
 * shares no code with the walk bound, the in-place sweep or the
 * replay. In canonical candidate order.
 */
std::vector<SimResult>
exhaustiveIdealRuns(const SimOptions &options, const std::string &workload,
                    ScenarioKind scenario)
{
    const CellPairState pair(options, workload, scenario);
    std::vector<SimResult> runs;
    for (const std::uint64_t distance : candidateDistances()) {
        const PageTable table =
            buildAnchorPageTable(pair.map(), AnchorDist::fromPages(distance));
        runs.push_back(runSchemeCell(options, pair.spec(), pair.scenario(),
                                     pair.map(), table, Scheme::AnchorIdeal,
                                     distance));
    }
    return runs;
}

bool
fewerMisses(const SimResult &a, const SimResult &b)
{
    return a.misses() < b.misses();
}

TEST(ParallelRunner, EightThreadsMatchSerialOnFullGrid)
{
    const std::vector<CellJob> jobs = regressionGrid();

    ParallelRunner serial(quickOptions(1));
    ParallelRunner parallel(quickOptions(8));
    const std::vector<SimResult> a = serial.run(jobs);
    const std::vector<SimResult> b = parallel.run(jobs);

    ASSERT_EQ(a.size(), jobs.size());
    ASSERT_EQ(b.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(jobs[i].workload + "/" +
                     scenarioName(jobs[i].scenario) + "/" +
                     schemeName(jobs[i].scheme));
        expectIdentical(a[i], b[i]);
    }
}

TEST(ParallelRunner, ParallelMatchesExperimentContextCellByCell)
{
    // The engine must reproduce the original serial API exactly, not
    // just itself at threads=1.
    const std::vector<CellJob> jobs = regressionGrid();

    ExperimentContext ctx(quickOptions(1));
    ParallelRunner parallel(quickOptions(8));
    const std::vector<SimResult> results = parallel.run(jobs);

    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(jobs[i].workload + "/" +
                     scenarioName(jobs[i].scenario) + "/" +
                     schemeName(jobs[i].scheme));
        const SimResult expect = ctx.run(
            jobs[i].workload, jobs[i].scenario, jobs[i].scheme,
            jobs[i].distance_override);
        expectIdentical(expect, results[i]);
    }
}

TEST(ParallelRunner, DistanceOverrideHonoured)
{
    const CellJob job = {"canneal", ScenarioKind::MedContig,
                         Scheme::Anchor, 64};

    ParallelRunner parallel(quickOptions(4));
    const std::vector<SimResult> results = parallel.run({job});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].anchor_distance, 64u);

    ExperimentContext ctx(quickOptions(1));
    expectIdentical(ctx.run(job.workload, job.scenario, job.scheme, 64),
                    results[0]);
}

TEST(ParallelRunner, RunCellsRoutesThroughContextWhenSerial)
{
    const std::vector<CellJob> jobs = {
        {"canneal", ScenarioKind::Demand, Scheme::Base, {}},
        {"canneal", ScenarioKind::Demand, Scheme::Anchor, {}},
    };

    ExperimentContext serial_ctx(quickOptions(1));
    const std::vector<SimResult> serial = runCells(serial_ctx, jobs);

    ExperimentContext parallel_ctx(quickOptions(8));
    const std::vector<SimResult> parallel = runCells(parallel_ctx, jobs);

    ASSERT_EQ(serial.size(), jobs.size());
    ASSERT_EQ(parallel.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expectIdentical(serial[i], parallel[i]);
}

TEST(ParallelRunner, EmptyJobListYieldsEmptyResults)
{
    ParallelRunner parallel(quickOptions(8));
    EXPECT_TRUE(parallel.run({}).empty());
}

TEST(ParallelRunner, IdealChunksMatchSerial)
{
    // Full 7-scheme rows on two pairs. sphinx3 x medium has a 12-way
    // tie at the fewest Static Ideal misses; mcf x low a 2-way one.
    // Every thread count splits the 16 candidates into different rank
    // chunks (17 clamps to 16 chunks of one), and every split must
    // still pick the serial first minimum.
    const std::vector<std::pair<std::string, ScenarioKind>> pairs = {
        {"sphinx3", ScenarioKind::MedContig},
        {"mcf", ScenarioKind::LowContig},
    };
    std::vector<CellJob> jobs;
    for (const auto &[workload, scenario] : pairs)
        for (const Scheme scheme : allSchemes)
            jobs.push_back({workload, scenario, scheme, {}});

    const std::vector<std::uint64_t> distances = candidateDistances();
    ExperimentContext serial(quickOptions(1));
    std::vector<SimResult> expect;
    for (const CellJob &job : jobs) {
        expect.push_back(serial.run(job.workload, job.scenario, job.scheme,
                                    job.distance_override));
        if (job.scheme != Scheme::AnchorIdeal)
            continue;
        // The tie must really be there for the check to mean anything.
        const std::vector<SimResult> runs =
            exhaustiveIdealRuns(quickOptions(1), job.workload, job.scenario);
        // min_element returns the first of equal minima.
        const auto best =
            std::min_element(runs.begin(), runs.end(), fewerMisses);
        const auto ties = std::count_if(
            runs.begin(), runs.end(), [&](const SimResult &r) {
                return r.misses() == best->misses();
            });
        EXPECT_GE(ties, 2) << job.workload;
        EXPECT_EQ(expect.back().anchor_distance,
                  distances[static_cast<std::size_t>(best - runs.begin())])
            << job.workload;
    }

    for (const unsigned threads : {2u, 3u, 5u, 16u, 17u}) {
        SCOPED_TRACE(threads);
        const std::vector<SimResult> results =
            ParallelRunner(quickOptions(threads)).run(jobs);
        ASSERT_EQ(results.size(), jobs.size());
        ExperimentContext ctx(quickOptions(threads));
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            SCOPED_TRACE(jobs[i].workload + "/" +
                         schemeName(jobs[i].scheme));
            expectIdentical(expect[i], results[i]);
            expectIdentical(expect[i],
                            ctx.run(jobs[i].workload, jobs[i].scenario,
                                    jobs[i].scheme,
                                    jobs[i].distance_override));
        }
    }
}

TEST(ParallelRunner, IdealBoundMatchesExhaustiveSweep)
{
    // The walk bound stops candidates that can no longer win. Every
    // executor and thread split must still return the exhaustive
    // sweep's first minimum, byte for byte: every scenario, a kept
    // stream (mcf), an abandoned one (gups), and sphinx3, whose medium
    // scenario ties 12 candidates at the fewest misses.
    for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{7919}}) {
        SimOptions opts = quickOptions(1);
        opts.seed = seed;
        std::vector<CellJob> jobs;
        std::vector<SimResult> expect;
        for (const std::string workload : {"mcf", "gups", "sphinx3"}) {
            for (const ScenarioKind scenario : allScenarios) {
                jobs.push_back({workload, scenario, Scheme::AnchorIdeal, {}});
                const std::vector<SimResult> runs =
                    exhaustiveIdealRuns(opts, workload, scenario);
                expect.push_back(
                    *std::min_element(runs.begin(), runs.end(), fewerMisses));
            }
        }
        const auto trace = [&](std::size_t i) {
            return "seed " + std::to_string(seed) + " " + jobs[i].workload +
                   "/" + scenarioName(jobs[i].scenario);
        };

        ExperimentContext serial(opts);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            SCOPED_TRACE("serial " + trace(i));
            expectIdentical(expect[i], serial.run(jobs[i].workload,
                                                  jobs[i].scenario,
                                                  Scheme::AnchorIdeal));
        }
        EXPECT_GT(serial.cacheCounters().ideal_passes_stopped, 0u);

        for (std::size_t i = 0; i < jobs.size(); ++i) {
            SCOPED_TRACE("runCellJob " + trace(i));
            // The Static Ideal job is the fresh pair's first pass, so
            // one of its candidates records the stream. The recording
            // must be complete: a later pass replays it and matches the
            // direct stream.
            const CellPairState pair(opts, jobs[i].workload,
                                     jobs[i].scenario);
            expectIdentical(expect[i], runCellJob(opts, pair, jobs[i]));
            if (jobs[i].workload == "mcf") {
                EXPECT_GT(pair.recordingBytes(), 0u);
            }
            StreamUse use = StreamUse::Direct;
            const SimResult replayed = runSchemeCell(
                opts, pair, pair.plainTable(), Scheme::Base, 0, &use);
            EXPECT_EQ(use, pair.recordingBytes() > 0 ? StreamUse::Replayed
                                                     : StreamUse::Direct);
            expectIdentical(runSchemeCell(opts, pair.spec(), pair.scenario(),
                                          pair.map(), pair.plainTable(),
                                          Scheme::Base, 0),
                            replayed);
        }

        for (const unsigned threads : {2u, 3u, 16u}) {
            opts.threads = threads;
            const std::vector<SimResult> results =
                ParallelRunner(opts).run(jobs);
            ASSERT_EQ(results.size(), jobs.size());
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                SCOPED_TRACE(std::to_string(threads) + " threads " +
                             trace(i));
                expectIdentical(expect[i], results[i]);
            }
        }
    }
}

TEST(ParallelRunner, IdealRankChunksAreContiguousAndBalanced)
{
    for (const unsigned threads : {0u, 1u, 2u, 3u, 5u, 16u, 17u}) {
        const std::vector<RankChunk> chunks = idealRankChunks(threads, 16);
        ASSERT_EQ(chunks.size(), std::clamp(threads, 1u, 16u));
        std::size_t next = 0;
        for (const RankChunk &chunk : chunks) {
            EXPECT_EQ(chunk.lo, next);
            EXPECT_GE(chunk.hi - chunk.lo, 16 / chunks.size());
            EXPECT_LE(chunk.hi - chunk.lo, 16 / chunks.size() + 1);
            next = chunk.hi;
        }
        EXPECT_EQ(next, 16u);
    }
}

TEST(ParallelRunner, RepeatedParallelRunsAreStable)
{
    // Two runs of the same jobs through fresh pools must agree: no
    // hidden shared state survives between runs.
    const std::vector<CellJob> jobs = {
        {"sphinx3", ScenarioKind::HighContig, Scheme::AnchorIdeal, {}},
    };
    ParallelRunner parallel(quickOptions(8));
    const std::vector<SimResult> first = parallel.run(jobs);
    const std::vector<SimResult> second = parallel.run(jobs);
    ASSERT_EQ(first.size(), 1u);
    ASSERT_EQ(second.size(), 1u);
    expectIdentical(first[0], second[0]);
}

} // namespace
} // namespace atlb
