#include "run_recording.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace atlb
{

std::size_t
RunRecording::budgetFor(std::uint64_t accesses)
{
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(accesses / 8, maxRuns));
}

RunRecording::RunRecording(std::size_t max_runs) : max_runs_(max_runs)
{
    words_.reserve(max_runs_);
}

bool
RunRecording::push(std::uint64_t vpn, std::uint64_t len)
{
    for (;;) {
        if (words_.size() == max_runs_) {
            abandon();
            return false;
        }
        const std::uint64_t part = std::min(len, maxRunLength);
        words_.push_back(word(Vpn{vpn}, part));
        len -= part;
        if (len == 0)
            return true;
    }
}

void
RunRecording::append(const MemAccess *accesses, std::size_t n)
{
    // Two passes per chunk keep the per-access loop branch-free: the
    // first collects the indices where a new page run starts, the
    // second (one iteration per run, ~7% of accesses on a cache-friendly
    // stream) closes the open run at each of them.
    constexpr std::size_t chunk = 1024;
    std::uint32_t starts[chunk];
    for (std::size_t base = 0; base < n && !abandoned_; base += chunk) {
        const std::size_t m = std::min(chunk, n - base);
        const MemAccess *a = accesses + base;
        // No VPN equals ~0 (VAs are 64-bit), so an empty recording's
        // first access always starts a run.
        std::uint64_t prev = open_len_ > 0 ? open_vpn_ : ~0ULL;
        std::size_t k = 0;
        for (std::size_t i = 0; i < m; ++i) {
            const std::uint64_t vpn = vpnOf(a[i].vaddr).raw();
            starts[k] = static_cast<std::uint32_t>(i);
            k += static_cast<std::size_t>(vpn != prev);
            prev = vpn;
        }
        std::size_t pos = 0; // chunk index where the open run resumes
        for (std::size_t j = 0; j < k; ++j) {
            open_len_ += starts[j] - pos;
            if (open_len_ > 0 && !push(open_vpn_, open_len_))
                return;
            pos = starts[j];
            open_vpn_ = vpnOf(a[pos].vaddr).raw();
            open_len_ = 0;
            if (open_vpn_ > maxVpn) {
                abandon();
                return;
            }
        }
        open_len_ += m - pos;
    }
}

void
RunRecording::finish()
{
    if (!abandoned_ && open_len_ > 0)
        push(open_vpn_, open_len_);
    open_len_ = 0;
}

void
RunRecording::abandon()
{
    abandoned_ = true;
    open_len_ = 0;
    std::vector<std::uint64_t>().swap(words_);
}

RecordingTee::RecordingTee(std::unique_ptr<TraceSource> inner,
                           RunRecording &recording)
    : inner_(std::move(inner)), recording_(recording)
{
    ATLB_ASSERT(inner_, "recording tee needs a source");
}

bool
RecordingTee::next(MemAccess &out)
{
    if (!inner_->next(out))
        return false;
    recording_.append(&out, 1);
    return true;
}

std::size_t
RecordingTee::fill(MemAccess *out, std::size_t max)
{
    const std::size_t n = inner_->fill(out, max);
    recording_.append(out, n);
    return n;
}

void
RecordingTee::reset()
{
    recording_.abandon();
    inner_->reset();
}

RecordingReplay::RecordingReplay(
    std::shared_ptr<const RunRecording> recording)
    : recording_(std::move(recording))
{
    ATLB_ASSERT(recording_ && !recording_->abandoned(),
                "replay needs a kept recording");
}

bool
RecordingReplay::next(MemAccess &out)
{
    return fill(&out, 1) == 1;
}

std::size_t
RecordingReplay::fill(MemAccess *out, std::size_t max)
{
    const std::vector<std::uint64_t> &words = recording_->words();
    std::size_t n = 0;
    while (n < max && run_ < words.size()) {
        const std::uint64_t word = words[run_];
        const std::uint64_t len = RunRecording::wordLength(word);
        const std::uint64_t take =
            std::min<std::uint64_t>(len - consumed_, max - n);
        const MemAccess access{vaOf(RunRecording::wordVpn(word)), false};
        std::fill_n(out + n, take, access);
        n += static_cast<std::size_t>(take);
        consumed_ += take;
        if (consumed_ == len) {
            ++run_;
            consumed_ = 0;
        }
    }
    return n;
}

void
RecordingReplay::reset()
{
    run_ = 0;
    consumed_ = 0;
}

} // namespace atlb
