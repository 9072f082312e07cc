/**
 * @file
 * Record once, replay many: a run-length recording of an access
 * stream's page sequence, the tee that fills one while a pass consumes
 * its source, and the source that replays it into later passes.
 *
 * Every consumer of a cell's stream reads only vpnOf(vaddr) (the batch
 * kernel, the per-access loop and the checked-build oracle), so the
 * recording keeps just the page sequence: one 64-bit word per maximal
 * same-page run, the VPN in the high bits and the run length in the
 * low lengthBits. A replayed access carries its page's base address and
 * write = false; the VPN sequence — and with it every MmuStats counter
 * — is identical to the recorded source's (DESIGN.md §7.4).
 *
 * A recording has a fixed word budget reserved up front (regrowth
 * copies raised peak RSS measurably). Overrunning the budget, or
 * meeting a VPN wider than the word's VPN field, abandons the
 * recording and frees its storage: the tee keeps passing accesses
 * through, and the stream simply has no recording.
 */

#ifndef ANCHORTLB_TRACE_RUN_RECORDING_HH
#define ANCHORTLB_TRACE_RUN_RECORDING_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "trace/access.hh"

namespace atlb
{

/** Run-length page sequence of one access stream (see file comment). */
class RunRecording
{
  public:
    /** Low bits of a word holding the run length. */
    static constexpr unsigned lengthBits = 24;
    /** Longest run one word holds; longer runs span several words. */
    static constexpr std::uint64_t maxRunLength = (1ULL << lengthBits) - 1;
    /** Widest VPN the word's high bits hold (a 52-bit VA). */
    static constexpr std::uint64_t maxVpn =
        (1ULL << (64 - lengthBits)) - 1;
    /** Absolute word cap, whatever the stream length (32 MB). */
    static constexpr std::size_t maxRuns = std::size_t{1} << 22;

    /** The word of a run of @p len (1..maxRunLength) accesses to @p vpn. */
    static constexpr std::uint64_t word(Vpn vpn, std::uint64_t len)
    {
        return vpn.raw() << lengthBits | len;
    }
    /** Page of the run @p word records. */
    static constexpr Vpn wordVpn(std::uint64_t word)
    {
        return Vpn{word >> lengthBits};
    }
    /** Accesses in the run @p word records. */
    static constexpr std::uint64_t wordLength(std::uint64_t word)
    {
        return word & maxRunLength;
    }

    /**
     * Word budget for a stream of @p accesses: accesses/8 runs (at most
     * one byte per access), capped at maxRuns. A stream with less page
     * reuse than that is not worth keeping.
     */
    static std::size_t budgetFor(std::uint64_t accesses);

    /** Empty recording that may hold up to @p max_runs words. */
    explicit RunRecording(std::size_t max_runs);

    /** Extend the recording by @p n accesses (no-op once abandoned). */
    void append(const MemAccess *accesses, std::size_t n);

    /** Close the open run; call once after the last append. */
    void finish();

    /** Drop the recording and free its storage. */
    void abandon();

    bool abandoned() const { return abandoned_; }
    std::size_t runs() const { return words_.size(); }
    std::size_t bytes() const
    {
        return words_.size() * sizeof(std::uint64_t);
    }
    const std::vector<std::uint64_t> &words() const { return words_; }

  private:
    std::vector<std::uint64_t> words_;
    std::size_t max_runs_;
    std::uint64_t open_vpn_ = 0;
    std::uint64_t open_len_ = 0; //!< 0 = no run open
    bool abandoned_ = false;

    /** Append one word; abandons (false) when over budget. */
    bool push(std::uint64_t vpn, std::uint64_t len);
};

/**
 * Passes @p inner's stream through unchanged while appending it to a
 * recording. skip() drains through fill(), so skipped accesses are
 * recorded too; reset() would record the stream twice, so it abandons
 * the recording.
 */
class RecordingTee : public TraceSource
{
  public:
    /** @p recording is borrowed and must outlive the tee. */
    RecordingTee(std::unique_ptr<TraceSource> inner,
                 RunRecording &recording);

    bool next(MemAccess &out) override;
    std::size_t fill(MemAccess *out, std::size_t max) override;
    void reset() override;

  private:
    std::unique_ptr<TraceSource> inner_;
    RunRecording &recording_;
};

/**
 * Replays a finished recording: each run expands into its length of
 * page-base reads. Shares the recording read-only, so any number of
 * concurrent replays may read one recording. This is the per-access
 * reference of a replay: batch-mode passes hand the words themselves
 * to Mmu::translateRuns instead (DESIGN.md §7.4).
 */
class RecordingReplay : public TraceSource
{
  public:
    explicit RecordingReplay(std::shared_ptr<const RunRecording> recording);

    bool next(MemAccess &out) override;
    std::size_t fill(MemAccess *out, std::size_t max) override;
    void reset() override;

  private:
    std::shared_ptr<const RunRecording> recording_;
    std::size_t run_ = 0;        //!< current word
    std::uint64_t consumed_ = 0; //!< accesses of it already produced
};

} // namespace atlb

#endif // ANCHORTLB_TRACE_RUN_RECORDING_HH
