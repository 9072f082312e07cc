/**
 * @file
 * Trace-driven TLB simulator: streams accesses through an MMU and
 * derives the paper's metrics (relative misses, hit-type fractions,
 * translation CPI).
 */

#ifndef ANCHORTLB_SIM_SIMULATOR_HH
#define ANCHORTLB_SIM_SIMULATOR_HH

#include <cstdint>
#include <optional>
#include <string>

#include "mmu/mmu.hh"
#include "trace/access.hh"
#include "trace/run_recording.hh"

namespace atlb
{

/** Everything measured by one simulation run. */
struct SimResult
{
    std::string workload;
    std::string scenario;
    std::string scheme;
    std::uint64_t anchor_distance = 0; //!< 0 for non-anchor schemes

    MmuStats stats;
    /** Estimated instruction count (accesses / mem_per_instr). */
    double instructions = 0.0;
    /** Cycle attribution (derived from per-bucket hit counts). */
    Cycles l2_hit_cycles = 0;
    Cycles coalesced_cycles = 0;
    Cycles walk_cycles = 0;

    /** Paper's "TLB misses": page walks. */
    std::uint64_t misses() const { return stats.page_walks; }

    /** Translation cycles added per instruction (paper Figs. 10-11). */
    double translationCpi() const
    {
        return instructions > 0.0
                   ? static_cast<double>(stats.translation_cycles) /
                         instructions
                   : 0.0;
    }

    double cpiL2() const
    {
        return instructions > 0.0
                   ? static_cast<double>(l2_hit_cycles) / instructions
                   : 0.0;
    }
    double cpiCoalesced() const
    {
        return instructions > 0.0
                   ? static_cast<double>(coalesced_cycles) / instructions
                   : 0.0;
    }
    double cpiWalk() const
    {
        return instructions > 0.0
                   ? static_cast<double>(walk_cycles) / instructions
                   : 0.0;
    }

    /** Fractions of L2-level accesses, for paper Table 5. */
    double regularHitFraction() const;
    double coalescedHitFraction() const;
    double l2MissFraction() const;

    /**
     * Fold another partial result into this one: every counter sums
     * (stats, instructions, the cycle buckets); derived metrics (CPI,
     * hit fractions) are recomputed from the merged counters by their
     * accessors, never averaged. A default-constructed SimResult is the
     * identity element. The operation is associative and commutative up
     * to floating-point rounding of `instructions` (the integer
     * counters merge exactly in any order); the sharded runner relies
     * on this to combine per-shard partials
     * (tests/sim/test_sharded_runner.cc).
     *
     * Both sides must describe the same cell: merging partials with
     * differing workload/scenario/scheme/anchor_distance labels is a
     * caller bug (checked builds panic).
     */
    SimResult &merge(const SimResult &other);
};

/**
 * How the replay loop feeds the MMU. The two modes are
 * counter-identical (tests/sim/test_batch_kernel.cc pins it); Batch is
 * the production path, PerAccess the reference it is verified against
 * and the slow side of bench_hotpath's ratio.
 */
enum class TranslateMode : std::uint8_t
{
    Batch,     //!< one translateBatch call per 1024-access buffer
    PerAccess, //!< one translate() call per access
};

/**
 * Run @p trace through @p mmu to completion, or until @p walk_bound
 * stops it.
 *
 * @param mem_per_instr data accesses per instruction (CPI conversion)
 * @param mode          batch kernel (default) or per-access reference
 * @param batch_stats   if non-null, accumulates the replay's
 *                      BatchStats (batch mode only; untouched in
 *                      per-access mode)
 * @param walk_bound    if set, the run stops at the first 1024-access
 *                      block boundary where the MMU's page_walks
 *                      exceed it, and the result covers only the
 *                      accesses simulated so far
 */
SimResult runSimulation(Mmu &mmu, TraceSource &trace, double mem_per_instr,
                        TranslateMode mode = TranslateMode::Batch,
                        BatchStats *batch_stats = nullptr,
                        std::optional<std::uint64_t> walk_bound = {});

/**
 * Replay @p recording through @p mmu run by run: one
 * Mmu::translateRuns call per block of 1024 words. Counter-identical
 * to the batch-mode overload above over a RecordingReplay of the same
 * recording, which is the per-access reference (DESIGN.md §7.4).
 * @p walk_bound stops the run at a block boundary as above.
 */
SimResult runSimulation(Mmu &mmu, const RunRecording &recording,
                        double mem_per_instr,
                        std::optional<std::uint64_t> walk_bound = {});

} // namespace atlb

#endif // ANCHORTLB_SIM_SIMULATOR_HH
