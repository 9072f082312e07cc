/**
 * @file
 * Parallel sweep engine for experiment grids.
 *
 * The paper's evaluation is a design-space sweep: workloads x mapping
 * scenarios x schemes, with AnchorIdeal cells additionally fanning out
 * over every candidate anchor distance. Cells are embarrassingly
 * parallel — every source of randomness derives from per-cell seeds
 * (SimOptions::seed x workload name x scenario), never from execution
 * order — so the engine runs them across a fixed-size thread pool and
 * collects results in submission order, making the output byte-identical
 * to a serial run for any thread count (enforced by
 * tests/sim/test_parallel_runner.cc).
 *
 * Scheduling: expensive per-(workload, scenario) state — the mapping,
 * the plain/THP page tables and the recorded access stream — is built
 * once per pair (by whichever worker gets there first) and shared by
 * that pair's scheme jobs. Tables are never written after their build,
 * so every job of a pair, anchor jobs included, reads the same tables
 * (DESIGN.md §7.5). An AnchorIdeal cell fans out as min(threads, 16)
 * contiguous chunks of candidate ranks, one walk bound each (DESIGN.md
 * §7.6). Leaves are enqueued in pair order and each pair's state is
 * freed when its last leaf completes, so peak memory stays near
 * (threads + 1) live pairs rather than the whole grid.
 */

#ifndef ANCHORTLB_SIM_PARALLEL_RUNNER_HH
#define ANCHORTLB_SIM_PARALLEL_RUNNER_HH

#include <optional>
#include <string>
#include <vector>

#include "sim/experiment.hh"

namespace atlb
{

/** One experiment cell: the unit of parallel scheduling. */
struct CellJob
{
    std::string workload;
    ScenarioKind scenario = ScenarioKind::Demand;
    Scheme scheme = Scheme::Base;
    /** Anchor scheme only: fixed distance instead of the dynamic one. */
    std::optional<std::uint64_t> distance_override{};
};

/**
 * Run one cell against shared @p pair state (which must be the pair
 * @p job names). This is the complete single-cell job body:
 * Base/Cluster use the pair's plain table; the THP-family and anchor
 * schemes its THP table. Anchor runs one pass at its distance, and
 * AnchorIdeal runs every candidate distance in one runAnchorPasses
 * call, under that call's walk bound, keeping the first minimum-miss
 * run (the same tie-break as the serial sweep and the parallel
 * reduction). Only reads the pair's tables, so any number of jobs
 * share them. options.threads is not consulted — callers
 * wanting within-cell parallelism split AnchorIdeal candidates into
 * rank chunks themselves (idealRankChunks). Safe for concurrent calls
 * sharing one @p pair; results are byte-identical to
 * ExperimentContext::run for the same options.
 */
SimResult runCellJob(const SimOptions &options, const CellPairState &pair,
                     const CellJob &job);

/**
 * Runs batches of cells, serially (threads == 1: the exact
 * ExperimentContext path) or across a thread pool. Results come back in
 * submission order and are identical either way.
 */
class ParallelRunner
{
  public:
    /** @p options.threads picks the worker count (1 = serial). */
    explicit ParallelRunner(SimOptions options);

    std::vector<SimResult> run(const std::vector<CellJob> &jobs);

    unsigned threads() const { return options_.threads; }
    const SimOptions &options() const { return options_; }

  private:
    SimOptions options_;
};

/**
 * Convenience for the bench helpers: run @p jobs through @p ctx when
 * ctx.options().threads == 1 (reusing its warm pair cache), else through
 * the parallel engine with the same options. Same results either way.
 */
std::vector<SimResult> runCells(ExperimentContext &ctx,
                                const std::vector<CellJob> &jobs);

} // namespace atlb

#endif // ANCHORTLB_SIM_PARALLEL_RUNNER_HH
