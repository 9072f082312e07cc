/**
 * @file
 * In-memory span recording for the benchmark's traced pass, the
 * self-time arithmetic over a span tree, and the percentile rule used
 * by every latency the benchmark reports.
 *
 * Spans are recorded from the benchmark's own code around calls into
 * the simulator's public functions; nothing under src/ is instrumented.
 * A span's layer is the prefix of its name before the first '.'
 * ("os.anchor_table" belongs to layer "os").
 */

#ifndef ANCHORTLB_PERFBENCH_SPANS_HH
#define ANCHORTLB_PERFBENCH_SPANS_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

/** Sentinel parent of a root span. */
constexpr std::uint32_t noSpan = ~static_cast<std::uint32_t>(0);

/** One timed interval. Times are nanoseconds since the recorder's epoch. */
struct Span
{
    const char *name = "";
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t parent = noSpan; //!< index into the same span list
    std::uint64_t request = 0;     //!< spans of one request share this
    std::uint32_t track = 0;       //!< Chrome "tid": one per thread

    std::uint64_t duration() const { return end_ns - start_ns; }
};

/**
 * Records spans for one thread. begin()/end() nest: a span opened while
 * another is open becomes its child. Names must be string literals (the
 * recorder keeps the pointer).
 */
class SpanRecorder
{
  public:
    using Clock = std::chrono::steady_clock;

    SpanRecorder(Clock::time_point epoch, std::uint32_t track)
        : epoch_(epoch), track_(track)
    {}

    /** Open a span under the innermost open one; returns its index. */
    std::uint32_t begin(const char *name, std::uint64_t request = 0);

    /** Close the innermost open span. */
    void end();

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::uint64_t nowNs() const;

    Clock::time_point epoch_;
    std::uint32_t track_;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> open_;
};

/** RAII begin/end around one call. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const char *name, std::uint64_t request = 0)
        : rec_(rec)
    {
        rec_.begin(name, request);
    }
    ~ScopedSpan() { rec_.end(); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &rec_;
};

/**
 * Append @p src (one recorder's spans) to @p dst, rebasing parent
 * indices so the merged list stays self-consistent.
 */
void appendSpans(std::vector<Span> &dst, const std::vector<Span> &src);

/** Layer of a span name: the text before the first '.', or the name. */
std::string layerOf(const char *name);

/**
 * Self time of every span: its duration minus the length of the part of
 * its interval that its direct children cover (the union of the
 * children's intervals clipped to the parent's, so overlapping children
 * are not counted twice).
 */
std::vector<std::uint64_t> selfTimesNs(const std::vector<Span> &spans);

/**
 * Indices of the subtree rooted at @p root (root first), relying on
 * parents being recorded before their children.
 */
std::vector<std::uint32_t> subtree(const std::vector<Span> &spans,
                                   std::uint32_t root);

/** Copy of the subtree rooted at @p root, parents rebased, root parentless. */
std::vector<Span> extractSubtree(const std::vector<Span> &spans,
                                 std::uint32_t root);

/**
 * Self time summed per layer over the subtree rooted at @p root
 * (root included).
 */
std::map<std::string, std::uint64_t>
layerSelfNs(const std::vector<Span> &spans, std::uint32_t root);

/**
 * Write @p spans as Chrome trace-event JSON ("X" complete events, one
 * per span, microsecond timestamps), which Perfetto and chrome://tracing
 * open directly.
 */
void writeChromeTrace(std::ostream &out, const std::vector<Span> &spans);

/**
 * Nearest-rank @p p-th percentile of @p values (0 when empty); @p p is
 * in (0, 100] with at most one decimal, so ranks are computed exactly.
 */
double percentile(std::vector<double> values, double p);

/** Median (nearest-rank 50th percentile). */
inline double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

/** Samples strictly above the nearest-rank @p p-th percentile of @p n. */
std::size_t samplesBeyond(std::size_t n, double p);

/**
 * The highest of the tail percentiles 90, 99 and 99.9 that has at least
 * ten samples beyond it among @p n samples, or nothing when even p90
 * lacks them (the median is then the only figure the sample supports).
 */
std::optional<double> highestSupportedPercentile(std::size_t n);

} // namespace perfbench

#endif // ANCHORTLB_PERFBENCH_SPANS_HH
