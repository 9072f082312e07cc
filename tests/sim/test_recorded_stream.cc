/**
 * @file
 * Record once, replay many: every pass of a pair that replays the
 * pair's recorded stream must produce the SimResult of the direct
 * stream, field for field. Covers all 7 schemes (each Static Ideal
 * candidate distance as its own pass) plus an Anchor distance
 * override; a stream whose recording is kept (mcf, an mcf capture) and
 * ones whose recording is abandoned (gups, the golden mini capture);
 * both translate modes; seeds 1 and 7919. Also pins the race rule (a
 * pass that starts while another records streams directly) and the
 * ExperimentContext stream counters.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "ingest/trace_v2.hh"
#include "os/distance_selector.hh"
#include "os/table_builder.hh"
#include "sim/experiment.hh"

namespace atlb
{
namespace
{

SimOptions
streamOptions(std::uint64_t seed, TranslateMode mode)
{
    SimOptions opts;
    opts.accesses = 20'000;
    opts.seed = seed;
    opts.footprint_scale = 0.02;
    opts.translate_mode = mode;
    return opts;
}

void
expectSameResult(const SimResult &a, const SimResult &b,
                 const std::string &what)
{
    SCOPED_TRACE(what);
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

/** One simulation pass of a pair: a scheme at one distance. */
struct Pass
{
    Scheme scheme = Scheme::Base;
    std::uint64_t distance = 0;
};

/** A row's passes in executor order, plus an Anchor override. */
std::vector<Pass>
rowPasses(const CellPairState &pair)
{
    std::vector<Pass> passes = {
        {Scheme::Base, 0},
        {Scheme::Thp, 0},
        {Scheme::Cluster, 0},
        {Scheme::Cluster2MB, 0},
        {Scheme::Rmm, 0},
        {Scheme::Anchor, pair.dynamicDistance()},
        {Scheme::Anchor, 64}, // a distance override
    };
    for (const std::uint64_t distance : candidateDistances())
        passes.push_back({Scheme::AnchorIdeal, distance});
    return passes;
}

/** Compare every pass via the pair against the direct stream. */
void
expectRowMatchesDirect(const SimOptions &options,
                       const std::string &workload, bool kept)
{
    const CellPairState pair(options, workload, ScenarioKind::MedContig);
    const std::vector<Pass> passes = rowPasses(pair);
    for (std::size_t i = 0; i < passes.size(); ++i) {
        const Pass &p = passes[i];
        std::optional<PageTable> anchor_table;
        const PageTable *table = &pair.thpTable();
        if (p.scheme == Scheme::Base || p.scheme == Scheme::Cluster) {
            table = &pair.plainTable();
        } else if (p.scheme == Scheme::Anchor ||
                   p.scheme == Scheme::AnchorIdeal) {
            anchor_table = buildAnchorPageTable(
                pair.map(), AnchorDist::fromPages(p.distance));
            table = &*anchor_table;
        }
        StreamUse use = StreamUse::Direct;
        const SimResult via_pair =
            runSchemeCell(options, pair, *table, p.scheme, p.distance, &use);
        const SimResult direct =
            runSchemeCell(options, pair.spec(), pair.scenario(), pair.map(),
                          *table, p.scheme, p.distance);
        const std::string what = workload + " pass " + std::to_string(i) +
                                 " " + schemeName(p.scheme) + "@" +
                                 std::to_string(p.distance);
        expectSameResult(via_pair, direct, what);
        const StreamUse expected =
            !kept ? StreamUse::Direct
                  : (i == 0 ? StreamUse::Recorded : StreamUse::Replayed);
        EXPECT_EQ(use, expected) << what;
    }
    EXPECT_EQ(pair.recordingBytes() > 0, kept) << workload;
}

/** An ATLBTRC2 capture of the mcf cell stream (a kept recording). */
std::string
mcfCapture(const SimOptions &options)
{
    // ctest runs each case as its own process, concurrently: the pid
    // keeps their captures apart.
    const std::string path = ::testing::TempDir() + "recorded_mcf_" +
                             std::to_string(::getpid()) + ".atlbtrc2";
    const WorkloadSpec spec = scaledWorkloadSpec(options, "mcf");
    const std::unique_ptr<TraceSource> source =
        makeCellTrace(options, spec, options.accesses);
    TraceV2Writer writer(path);
    MemAccess buffer[1024];
    while (const std::size_t n = source->fill(buffer, 1024)) {
        for (std::size_t i = 0; i < n; ++i)
            writer.append(buffer[i]);
    }
    writer.close();
    return path;
}

using DiffParam = std::tuple<std::uint64_t, TranslateMode>;

class RecordedStreamDiff : public ::testing::TestWithParam<DiffParam>
{
  protected:
    SimOptions options() const
    {
        return streamOptions(std::get<0>(GetParam()),
                             std::get<1>(GetParam()));
    }
};

TEST_P(RecordedStreamDiff, McfRecordingIsKeptAndReplaysMatchDirect)
{
    expectRowMatchesDirect(options(), "mcf", true);
}

TEST_P(RecordedStreamDiff, GupsRecordingIsAbandonedAndPassesMatchDirect)
{
    expectRowMatchesDirect(options(), "gups", false);
}

TEST_P(RecordedStreamDiff, MiniCaptureRecordingIsAbandoned)
{
    // 416 accesses, half of them page changes: far over 1 byte/access.
    expectRowMatchesDirect(options(),
                           std::string("trace:") + ATLB_GOLDEN_DIR +
                               "/mini.atlbtrc2",
                           false);
}

TEST_P(RecordedStreamDiff, McfCaptureRecordingIsKeptAndReplaysMatchDirect)
{
    const SimOptions opts = options();
    const std::string path = mcfCapture(opts);
    expectRowMatchesDirect(opts, "trace:" + path, true);
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndModes, RecordedStreamDiff,
    ::testing::Combine(::testing::Values(std::uint64_t{1},
                                         std::uint64_t{7919}),
                       ::testing::Values(TranslateMode::Batch,
                                         TranslateMode::PerAccess)),
    [](const ::testing::TestParamInfo<DiffParam> &param) {
        return "seed" + std::to_string(std::get<0>(param.param)) +
               (std::get<1>(param.param) == TranslateMode::Batch
                    ? "_batch"
                    : "_per_access");
    });

TEST(RecordedStream, ReplayNeedsTheSameSeedAndLength)
{
    const SimOptions opts = streamOptions(1, TranslateMode::Batch);
    const CellPairState pair(opts, "mcf", ScenarioKind::Demand);
    StreamUse use = StreamUse::Direct;
    runSchemeCell(opts, pair, pair.plainTable(), Scheme::Base, 0, &use);
    ASSERT_EQ(use, StreamUse::Recorded);

    // A shorter cell and a different trace seed stream directly, and
    // still match their direct runs.
    SimOptions shorter = opts;
    shorter.accesses = 10'000;
    SimOptions reseeded = opts;
    reseeded.seed = 2;
    for (const SimOptions &other : {shorter, reseeded}) {
        const SimResult via_pair = runSchemeCell(
            other, pair, pair.plainTable(), Scheme::Base, 0, &use);
        EXPECT_EQ(use, StreamUse::Direct);
        expectSameResult(
            via_pair,
            runSchemeCell(other, pair.spec(), pair.scenario(), pair.map(),
                          pair.plainTable(), Scheme::Base, 0),
            "other options");
    }
    runSchemeCell(opts, pair, pair.plainTable(), Scheme::Base, 0, &use);
    EXPECT_EQ(use, StreamUse::Replayed);
}

TEST(RecordedStream, ShardedPassesStreamDirectly)
{
    SimOptions opts = streamOptions(1, TranslateMode::Batch);
    opts.shards = 2;
    const CellPairState pair(opts, "mcf", ScenarioKind::Demand);
    StreamUse use = StreamUse::Recorded;
    runSchemeCell(opts, pair, pair.plainTable(), Scheme::Base, 0, &use);
    EXPECT_EQ(use, StreamUse::Direct);
    EXPECT_EQ(pair.recordingBytes(), 0u);
}

TEST(RecordedStreamRace, TwoThreadsStartThePairsFirstPass)
{
    const SimOptions opts = streamOptions(1, TranslateMode::Batch);
    for (int round = 0; round < 4; ++round) {
        const CellPairState pair(opts, "mcf", ScenarioKind::MedContig);
        const PageTable &table = pair.plainTable();
        const SimResult direct =
            runSchemeCell(opts, pair.spec(), pair.scenario(), pair.map(),
                          table, Scheme::Base, 0);

        SimResult results[2];
        StreamUse uses[2] = {};
        std::atomic<int> ready{0};
        std::vector<std::thread> threads;
        for (int t = 0; t < 2; ++t) {
            threads.emplace_back([&, t] {
                ready.fetch_add(1);
                while (ready.load() < 2) {
                }
                results[t] = runSchemeCell(opts, pair, table, Scheme::Base,
                                           0, &uses[t]);
            });
        }
        for (std::thread &thread : threads)
            thread.join();

        // Exactly one pass claims the recording; the other streamed
        // directly (it started first) or replayed (it started after
        // the publish). Either way the bytes are the direct ones.
        EXPECT_EQ((uses[0] == StreamUse::Recorded) +
                      (uses[1] == StreamUse::Recorded),
                  1);
        expectSameResult(results[0], direct, "thread 0");
        expectSameResult(results[1], direct, "thread 1");

        StreamUse later = StreamUse::Direct;
        expectSameResult(runSchemeCell(opts, pair, table, Scheme::Base, 0,
                                       &later),
                         direct, "after the race");
        EXPECT_EQ(later, StreamUse::Replayed);
    }
}

/** Stream counters of one full row through ExperimentContext. */
ExperimentContext::CacheCounters
rowCounters(const std::string &workload, unsigned threads)
{
    SimOptions opts = streamOptions(1, TranslateMode::Batch);
    opts.threads = threads;
    ExperimentContext ctx(opts);
    for (const Scheme scheme : allSchemes)
        ctx.run(workload, ScenarioKind::MedContig, scheme);
    return ctx.cacheCounters();
}

TEST(RecordedStream, McfRowIsOneRecordedPassAndTwentyOneReplays)
{
    for (const unsigned threads : {1u, 4u}) {
        const ExperimentContext::CacheCounters c = rowCounters("mcf",
                                                                threads);
        EXPECT_EQ(c.stream_recorded, 1u) << threads << " threads";
        EXPECT_EQ(c.stream_replayed, 21u) << threads << " threads";
        EXPECT_EQ(c.stream_direct, 0u) << threads << " threads";
        // At most one byte per access, and a whole number of words.
        EXPECT_GT(c.recording_bytes, 0u);
        EXPECT_LE(c.recording_bytes, 20'000u);
        EXPECT_EQ(c.recording_bytes % 8, 0u);
        // A stopped Static Ideal pass still counts as a replay above.
        EXPECT_GE(c.ideal_passes_stopped, 1u) << threads << " threads";
    }
}

TEST(RecordedStream, GupsRowIsTwentyTwoDirectPasses)
{
    const ExperimentContext::CacheCounters c = rowCounters("gups", 1);
    EXPECT_EQ(c.stream_recorded, 0u);
    EXPECT_EQ(c.stream_replayed, 0u);
    EXPECT_EQ(c.stream_direct, 22u);
    EXPECT_EQ(c.recording_bytes, 0u);
}

} // namespace
} // namespace atlb
