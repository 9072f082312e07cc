#include "simulator.hh"

#include <algorithm>
#include <vector>

#include "common/check.hh"
#include "common/logging.hh"

namespace atlb
{

SimResult &
SimResult::merge(const SimResult &other)
{
    // Identity element: an empty partial adopts the other side whole,
    // so std::accumulate over shards needs no special first step.
    if (scheme.empty() && stats.accesses == 0) {
        *this = other;
        return *this;
    }
    if (other.scheme.empty() && other.stats.accesses == 0)
        return *this;
    ANCHOR_DCHECK(workload == other.workload &&
                      scenario == other.scenario &&
                      scheme == other.scheme &&
                      anchor_distance == other.anchor_distance,
                  "merging partials of different cells");
    stats += other.stats;
    instructions += other.instructions;
    l2_hit_cycles += other.l2_hit_cycles;
    coalesced_cycles += other.coalesced_cycles;
    walk_cycles += other.walk_cycles;
    return *this;
}

double
SimResult::regularHitFraction() const
{
    const std::uint64_t l2 = stats.l2Accesses();
    return l2 ? static_cast<double>(stats.l2_regular_hits) /
                    static_cast<double>(l2)
              : 0.0;
}

double
SimResult::coalescedHitFraction() const
{
    const std::uint64_t l2 = stats.l2Accesses();
    return l2 ? static_cast<double>(stats.coalesced_hits) /
                    static_cast<double>(l2)
              : 0.0;
}

double
SimResult::l2MissFraction() const
{
    const std::uint64_t l2 = stats.l2Accesses();
    return l2 ? static_cast<double>(stats.page_walks) /
                    static_cast<double>(l2)
              : 0.0;
}

namespace
{

/** Whether @p mmu has walked more pages than @p walk_bound allows. */
bool
overBound(const Mmu &mmu, std::optional<std::uint64_t> walk_bound)
{
    return walk_bound && mmu.stats().page_walks > *walk_bound;
}

/** The SimResult of everything @p mmu has translated so far. */
SimResult
resultOf(const Mmu &mmu, double mem_per_instr)
{
    SimResult res;
    res.scheme = mmu.name();
    res.stats = mmu.stats();
    res.instructions =
        static_cast<double>(res.stats.accesses) / mem_per_instr;
    // Attribute cycles per bucket; the walk bucket absorbs the rest of
    // the exact total (walks include the preceding lookup latency).
    const MmuConfig &cfg = mmu.config();
    res.l2_hit_cycles = res.stats.l2_regular_hits * cfg.l2_hit_cycles;
    res.coalesced_cycles =
        res.stats.coalesced_hits * cfg.coalesced_hit_cycles;
    ATLB_ASSERT(res.stats.translation_cycles >=
                    res.l2_hit_cycles + res.coalesced_cycles,
                "cycle attribution underflow");
    res.walk_cycles = res.stats.translation_cycles - res.l2_hit_cycles -
                      res.coalesced_cycles;
    return res;
}

} // namespace

SimResult
runSimulation(Mmu &mmu, TraceSource &trace, double mem_per_instr,
              TranslateMode mode, BatchStats *batch_stats,
              std::optional<std::uint64_t> walk_bound)
{
    ATLB_ASSERT(mem_per_instr > 0.0, "mem_per_instr must be positive");
    // Pull accesses in chunks: one virtual fill() per batch instead of
    // one virtual next() per access keeps the generator's state hot and
    // lets the translate loop run branch-predictably. Batch mode then
    // hands the whole buffer to the scheme's devirtualized kernel —
    // one virtual translateBatch call per 1024 accesses.
    constexpr std::size_t batch = 1024;
    MemAccess buffer[batch];
    BatchStats bs;
    while (!overBound(mmu, walk_bound)) {
        const std::size_t n = trace.fill(buffer, batch);
        if (n == 0)
            break;
        if (mode == TranslateMode::Batch) {
            mmu.translateBatch(buffer, n, bs);
        } else {
            for (std::size_t i = 0; i < n; ++i)
                mmu.translate(buffer[i].vaddr);
        }
    }
    if (batch_stats)
        *batch_stats += bs;
    return resultOf(mmu, mem_per_instr);
}

SimResult
runSimulation(Mmu &mmu, const RunRecording &recording, double mem_per_instr,
              std::optional<std::uint64_t> walk_bound)
{
    ATLB_ASSERT(mem_per_instr > 0.0, "mem_per_instr must be positive");
    ATLB_ASSERT(!recording.abandoned(), "replay needs a kept recording");
    constexpr std::size_t block = 1024;
    const std::vector<std::uint64_t> &words = recording.words();
    BatchStats bs;
    for (std::size_t done = 0;
         done < words.size() && !overBound(mmu, walk_bound);
         done += block) {
        mmu.translateRuns(words.data() + done,
                          std::min(block, words.size() - done), bs);
    }
    return resultOf(mmu, mem_per_instr);
}

} // namespace atlb
