/**
 * @file
 * Tests of the benchmark's trace arithmetic and percentile rule.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "spans.hh"

namespace perfbench
{
namespace
{

Span
span(const char *name, std::uint64_t start, std::uint64_t end,
     std::uint32_t parent = noSpan)
{
    Span s;
    s.name = name;
    s.start_ns = start;
    s.end_ns = end;
    s.parent = parent;
    return s;
}

TEST(PerfbenchSpans, SelfTimeSubtractsChildren)
{
    const std::vector<Span> spans{
        span("sim.row", 0, 100),
        span("os.pair_build", 10, 30, 0),
        span("sim.pass", 40, 90, 0),
        span("mmu.translate", 50, 60, 2),
        span("trace.fill", 60, 80, 2),
    };
    const std::vector<std::uint64_t> self = selfTimesNs(spans);
    EXPECT_EQ(self[0], 100u - 20u - 50u);
    EXPECT_EQ(self[1], 20u);
    EXPECT_EQ(self[2], 50u - 10u - 20u);
    EXPECT_EQ(self[3], 10u);
    EXPECT_EQ(self[4], 20u);
}

TEST(PerfbenchSpans, OverlappingChildrenCountOnce)
{
    // Two children on other threads overlap in [20, 30); one runs past
    // its parent's end and is clipped to it.
    const std::vector<Span> spans{
        span("serve.session", 0, 100),
        span("serve.round_trip", 10, 30, 0),
        span("serve.round_trip", 20, 40, 0),
        span("serve.round_trip", 90, 120, 0),
    };
    EXPECT_EQ(selfTimesNs(spans)[0], 100u - 30u - 10u);
}

TEST(PerfbenchSpans, LayerSelfTimesAddUpToTheRoot)
{
    const std::vector<Span> spans{
        span("other.root", 0, 5),
        span("sim.row", 10, 110),
        span("sim.cell", 10, 100, 1),
        span("os.pair_build", 12, 22, 2),
        span("mmu.translate", 30, 70, 2),
        span("trace.fill", 70, 95, 2),
    };
    const std::map<std::string, std::uint64_t> layers =
        layerSelfNs(spans, 1);
    EXPECT_EQ(layers.at("os"), 10u);
    EXPECT_EQ(layers.at("mmu"), 40u);
    EXPECT_EQ(layers.at("trace"), 25u);
    EXPECT_EQ(layers.at("sim"), 10u + 15u);
    EXPECT_EQ(layers.count("other"), 0u);
    std::uint64_t sum = 0;
    for (const auto &[layer, ns] : layers)
        sum += ns;
    EXPECT_EQ(sum, spans[1].duration());
}

TEST(PerfbenchSpans, RecorderNestsAndAppendRebasesParents)
{
    SpanRecorder rec(SpanRecorder::Clock::now(), 3);
    rec.begin("sim.row", 7);
    {
        const ScopedSpan child(rec, "os.pair_build", 7);
    }
    rec.end();
    ASSERT_EQ(rec.spans().size(), 2u);
    EXPECT_EQ(rec.spans()[1].parent, 0u);
    EXPECT_LE(rec.spans()[0].start_ns, rec.spans()[1].start_ns);
    EXPECT_GE(rec.spans()[0].end_ns, rec.spans()[1].end_ns);

    std::vector<Span> merged{span("x.first", 0, 1)};
    appendSpans(merged, rec.spans());
    EXPECT_EQ(merged[1].parent, noSpan);
    EXPECT_EQ(merged[2].parent, 1u);
    EXPECT_EQ(merged[2].track, 3u);
    EXPECT_EQ(layerOf(merged[2].name), "os");
}

TEST(PerfbenchSpans, ChromeTraceHasOneCompleteEventPerSpan)
{
    std::ostringstream out;
    writeChromeTrace(out, {span("sim.row", 1000, 3000),
                           span("mmu.translate", 1500, 2500, 0)});
    const std::string text = out.str();
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"name\":\"mmu.translate\",\"cat\":\"mmu\","
                        "\"ph\":\"X\""),
              std::string::npos);
    EXPECT_NE(text.find("\"ts\":1.500,\"dur\":1.000"), std::string::npos);
    EXPECT_NE(text.find("\"parent\":-1"), std::string::npos);
}

TEST(PerfbenchPercentiles, NearestRank)
{
    std::vector<double> values;
    for (int i = 100; i >= 1; --i)
        values.push_back(i);
    EXPECT_EQ(median(values), 50.0);
    EXPECT_EQ(percentile(values, 90.0), 90.0);
    EXPECT_EQ(percentile(values, 99.0), 99.0);
    EXPECT_EQ(percentile({7.0}, 99.9), 7.0);
    EXPECT_EQ(percentile({}, 50.0), 0.0);
}

TEST(PerfbenchPercentiles, HighestWithTenSamplesBeyond)
{
    EXPECT_FALSE(highestSupportedPercentile(0).has_value());
    EXPECT_FALSE(highestSupportedPercentile(99).has_value());
    EXPECT_EQ(samplesBeyond(99, 90.0), 9u);
    EXPECT_EQ(highestSupportedPercentile(100), 90.0);
    EXPECT_EQ(highestSupportedPercentile(999), 90.0);
    EXPECT_EQ(samplesBeyond(1000, 99.0), 10u);
    EXPECT_EQ(highestSupportedPercentile(1000), 99.0);
    EXPECT_EQ(highestSupportedPercentile(9999), 99.0);
    EXPECT_EQ(highestSupportedPercentile(10000), 99.9);
}

} // namespace
} // namespace perfbench
