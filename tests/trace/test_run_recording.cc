/**
 * @file
 * Tests for the run-length stream recording: the tee passes its source
 * through untouched, the replay reproduces the recorded page sequence
 * exactly (page-base reads), and the budget and VPN-width limits
 * abandon a recording instead of truncating it.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "trace/run_recording.hh"
#include "trace/workload.hh"

namespace atlb
{
namespace
{

/** TraceSource over a fixed vector. */
class VectorSource : public TraceSource
{
  public:
    explicit VectorSource(std::vector<MemAccess> accesses)
        : accesses_(std::move(accesses))
    {
    }

    bool next(MemAccess &out) override
    {
        if (pos_ == accesses_.size())
            return false;
        out = accesses_[pos_++];
        return true;
    }

    void reset() override { pos_ = 0; }

  private:
    std::vector<MemAccess> accesses_;
    std::size_t pos_ = 0;
};

std::vector<MemAccess>
drain(TraceSource &source, std::size_t chunk)
{
    std::vector<MemAccess> out;
    std::vector<MemAccess> buffer(chunk);
    while (const std::size_t n = source.fill(buffer.data(), chunk))
        out.insert(out.end(), buffer.begin(), buffer.begin() + n);
    return out;
}

/** A generated stream with byte offsets, writes and same-page runs. */
std::vector<MemAccess>
mcfStream(std::uint64_t accesses)
{
    const WorkloadSpec spec = findWorkload("mcf");
    PatternTrace trace(spec, VirtAddr{0x7f0000000000ULL}, accesses, 7);
    return drain(trace, 1024);
}

std::size_t
pageRuns(const std::vector<MemAccess> &stream)
{
    std::size_t runs = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        if (i == 0 || vpnOf(stream[i].vaddr) != vpnOf(stream[i - 1].vaddr))
            ++runs;
    }
    return runs;
}

TEST(RunRecording, TeePassesThroughAndReplayKeepsThePageSequence)
{
    const std::vector<MemAccess> stream = mcfStream(20'000);
    RunRecording recording(stream.size());
    // Odd chunk sizes put run boundaries across fill() calls.
    RecordingTee tee(std::make_unique<VectorSource>(stream), recording);
    const std::vector<MemAccess> teed = drain(tee, 333);
    recording.finish();

    ASSERT_EQ(teed.size(), stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
        ASSERT_EQ(teed[i].vaddr, stream[i].vaddr) << "access " << i;
        ASSERT_EQ(teed[i].write, stream[i].write) << "access " << i;
    }
    ASSERT_FALSE(recording.abandoned());
    EXPECT_EQ(recording.runs(), pageRuns(stream));
    EXPECT_EQ(recording.bytes(), recording.runs() * 8);

    auto kept = std::make_shared<RunRecording>(std::move(recording));
    RecordingReplay replay(kept);
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{1024}}) {
        replay.reset();
        const std::vector<MemAccess> replayed = drain(replay, chunk);
        ASSERT_EQ(replayed.size(), stream.size());
        for (std::size_t i = 0; i < stream.size(); ++i) {
            ASSERT_EQ(replayed[i].vaddr, vaOf(vpnOf(stream[i].vaddr)))
                << "access " << i;
            ASSERT_FALSE(replayed[i].write) << "access " << i;
        }
    }
}

TEST(RunRecording, ReplaySkipMatchesDrainingThePrefix)
{
    const std::vector<MemAccess> stream = mcfStream(5'000);
    auto recording = std::make_shared<RunRecording>(stream.size());
    recording->append(stream.data(), stream.size());
    recording->finish();

    RecordingReplay full(recording);
    const std::vector<MemAccess> all = drain(full, 1024);
    for (const std::uint64_t skip : {0ULL, 1ULL, 777ULL, 4'999ULL,
                                     5'000ULL, 9'000ULL}) {
        RecordingReplay replay(recording);
        replay.skip(skip);
        const std::vector<MemAccess> tail = drain(replay, 100);
        const std::size_t from =
            static_cast<std::size_t>(std::min<std::uint64_t>(skip, 5'000));
        ASSERT_EQ(tail.size(), all.size() - from) << "skip " << skip;
        for (std::size_t i = 0; i < tail.size(); ++i)
            ASSERT_EQ(tail[i].vaddr, all[from + i].vaddr) << "skip " << skip;
    }
}

TEST(RunRecording, RunsLongerThanOneWordSplit)
{
    // One page repeated past maxRunLength needs two words.
    std::vector<MemAccess> page(4096, MemAccess{VirtAddr{0x5000}, true});
    const std::uint64_t total = RunRecording::maxRunLength + 10;
    auto recording = std::make_shared<RunRecording>(4);
    for (std::uint64_t done = 0; done < total;) {
        const auto n = static_cast<std::size_t>(
            std::min<std::uint64_t>(page.size(), total - done));
        recording->append(page.data(), n);
        done += n;
    }
    recording->finish();
    ASSERT_FALSE(recording->abandoned());
    EXPECT_EQ(recording->runs(), 2u);

    RecordingReplay replay(recording);
    std::uint64_t replayed = 0;
    MemAccess buffer[1024];
    while (const std::size_t n = replay.fill(buffer, 1024)) {
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(buffer[i].vaddr, VirtAddr{0x5000});
        replayed += n;
    }
    EXPECT_EQ(replayed, total);
}

TEST(RunRecording, OverBudgetAbandonsAndFreesStorage)
{
    std::vector<MemAccess> stream;
    for (std::uint64_t p = 0; p < 5; ++p)
        stream.push_back({VirtAddr{p << pageShift}, false});
    RunRecording recording(3);
    recording.append(stream.data(), stream.size());
    recording.finish();
    EXPECT_TRUE(recording.abandoned());
    EXPECT_EQ(recording.runs(), 0u);
    EXPECT_EQ(recording.words().capacity(), 0u);

    // Exactly at budget is kept: the final open run fits.
    RunRecording fits(5);
    fits.append(stream.data(), stream.size());
    fits.finish();
    EXPECT_FALSE(fits.abandoned());
    EXPECT_EQ(fits.runs(), 5u);
}

TEST(RunRecording, VpnWiderThanTheWordAbandons)
{
    const MemAccess wide{vaOf(Vpn{RunRecording::maxVpn + 1}), false};
    RunRecording first(8);
    first.append(&wide, 1);
    EXPECT_TRUE(first.abandoned());

    const MemAccess ok{vaOf(Vpn{RunRecording::maxVpn}), false};
    RunRecording later(8);
    later.append(&ok, 1);
    later.append(&wide, 1);
    later.finish();
    EXPECT_TRUE(later.abandoned());
}

TEST(RunRecording, BudgetIsAtMostOneBytePerAccessAndCapped)
{
    EXPECT_EQ(RunRecording::budgetFor(7), 0u);
    EXPECT_EQ(RunRecording::budgetFor(8'000), 1'000u);
    EXPECT_EQ(RunRecording::budgetFor(1ULL << 40), RunRecording::maxRuns);
}

TEST(RunRecording, TeeSkipRecordsTheSkippedPrefixAndResetAbandons)
{
    const std::vector<MemAccess> stream = mcfStream(2'000);
    auto skipped = std::make_shared<RunRecording>(stream.size());
    RecordingTee skip_tee(std::make_unique<VectorSource>(stream),
                          *skipped);
    skip_tee.skip(10);
    EXPECT_EQ(drain(skip_tee, 64).size(), stream.size() - 10);
    skipped->finish();
    ASSERT_FALSE(skipped->abandoned());
    RecordingReplay replay(skipped);
    EXPECT_EQ(drain(replay, 64).size(), stream.size());

    RunRecording reset(stream.size());
    RecordingTee reset_tee(std::make_unique<VectorSource>(stream), reset);
    drain(reset_tee, 64);
    reset_tee.reset();
    EXPECT_TRUE(reset.abandoned());
    EXPECT_EQ(drain(reset_tee, 64).size(), stream.size());
}

} // namespace
} // namespace atlb
