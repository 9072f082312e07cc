#include "spans.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>

namespace perfbench
{

std::uint64_t
SpanRecorder::nowNs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count());
}

std::uint32_t
SpanRecorder::begin(const char *name, std::uint64_t request)
{
    Span span;
    span.name = name;
    span.parent = open_.empty() ? noSpan : open_.back();
    span.request = request;
    span.track = track_;
    const auto index = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(span);
    open_.push_back(index);
    // Read the clock last so the span's own bookkeeping is not in it.
    spans_.back().start_ns = nowNs();
    return index;
}

void
SpanRecorder::end()
{
    const std::uint64_t now = nowNs();
    spans_[open_.back()].end_ns = now;
    open_.pop_back();
}

void
appendSpans(std::vector<Span> &dst, const std::vector<Span> &src)
{
    const auto base = static_cast<std::uint32_t>(dst.size());
    for (Span span : src) {
        if (span.parent != noSpan)
            span.parent += base;
        dst.push_back(span);
    }
}

std::string
layerOf(const char *name)
{
    const std::string s(name);
    return s.substr(0, s.find('.'));
}

std::vector<std::uint64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::uint32_t>> children(spans.size());
    for (std::uint32_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent != noSpan)
            children[spans[i].parent].push_back(i);
    }

    std::vector<std::uint64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &parent = spans[i];
        std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
        for (const std::uint32_t c : children[i]) {
            const std::uint64_t lo =
                std::max(spans[c].start_ns, parent.start_ns);
            const std::uint64_t hi = std::min(spans[c].end_ns, parent.end_ns);
            if (lo < hi)
                covered.emplace_back(lo, hi);
        }
        std::sort(covered.begin(), covered.end());
        std::uint64_t union_ns = 0;
        std::uint64_t reach = parent.start_ns;
        for (const auto &[lo, hi] : covered) {
            const std::uint64_t from = std::max(lo, reach);
            if (hi > from)
                union_ns += hi - from;
            reach = std::max(reach, hi);
        }
        self[i] = parent.duration() - union_ns;
    }
    return self;
}

std::vector<std::uint32_t>
subtree(const std::vector<Span> &spans, std::uint32_t root)
{
    std::vector<bool> inside(spans.size(), false);
    std::vector<std::uint32_t> members;
    for (std::uint32_t i = root; i < spans.size(); ++i) {
        inside[i] = i == root ||
                    (spans[i].parent != noSpan && spans[i].parent >= root &&
                     inside[spans[i].parent]);
        if (inside[i])
            members.push_back(i);
    }
    return members;
}

std::vector<Span>
extractSubtree(const std::vector<Span> &spans, std::uint32_t root)
{
    std::map<std::uint32_t, std::uint32_t> rebased;
    std::vector<Span> out;
    for (const std::uint32_t i : subtree(spans, root)) {
        Span span = spans[i];
        span.parent = i == root ? noSpan : rebased.at(span.parent);
        rebased[i] = static_cast<std::uint32_t>(out.size());
        out.push_back(span);
    }
    return out;
}

std::map<std::string, std::uint64_t>
layerSelfNs(const std::vector<Span> &spans, std::uint32_t root)
{
    const std::vector<std::uint64_t> self = selfTimesNs(spans);
    std::map<std::string, std::uint64_t> layers;
    for (const std::uint32_t i : subtree(spans, root))
        layers[layerOf(spans[i].name)] += self[i];
    return layers;
}

void
writeChromeTrace(std::ostream &out, const std::vector<Span> &spans)
{
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    out << std::fixed << std::setprecision(3);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
            << "\",\"cat\":\"" << layerOf(s.name)
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.track
            << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
            << ",\"dur\":" << static_cast<double>(s.duration()) / 1e3
            << ",\"args\":{\"id\":" << i << ",\"parent\":"
            << (s.parent == noSpan ? -1 : static_cast<long long>(s.parent))
            << ",\"request\":" << s.request << "}}";
    }
    out << "\n]}\n";
}

namespace
{

/** Nearest rank (1-based) of the @p p-th percentile among @p n. */
std::size_t
nearestRank(std::size_t n, double p)
{
    const auto per_mille = static_cast<std::size_t>(std::llround(p * 10.0));
    return std::max<std::size_t>(1, (per_mille * n + 999) / 1000);
}

} // namespace

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    const std::size_t rank = nearestRank(values.size(), p);
    std::nth_element(values.begin(), values.begin() + (rank - 1),
                     values.end());
    return values[rank - 1];
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - nearestRank(n, p);
}

std::optional<double>
highestSupportedPercentile(std::size_t n)
{
    std::optional<double> best;
    for (const double p : {90.0, 99.0, 99.9}) {
        if (samplesBeyond(n, p) >= 10)
            best = p;
    }
    return best;
}

} // namespace perfbench
