/**
 * @file
 * Shared plumbing for the table/figure regenerator binaries.
 *
 * Every bench prints the rows of one paper artifact. Trace length and
 * footprint scale come from ANCHORTLB_ACCESSES / ANCHORTLB_SCALE; the
 * defaults below keep the full bench suite runnable in minutes while
 * preserving the relative-miss shapes (see EXPERIMENTS.md).
 */

#ifndef ANCHORTLB_BENCH_BENCH_UTIL_HH
#define ANCHORTLB_BENCH_BENCH_UTIL_HH

#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "stats/table.hh"

namespace atlb::bench
{

/** Options for figure benches: env overrides, else these defaults. */
SimOptions figureOptions();

/** The paper's scheme comparison set, in legend order. */
const std::vector<Scheme> &comparedSchemes();

/**
 * All (workload x scheme) cells of one scenario, run through the sweep
 * engine (parallel when ctx.options().threads > 1). Results come back
 * workload-major in paperWorkloadNames() x comparedSchemes() order.
 */
std::vector<SimResult> scenarioGrid(ExperimentContext &ctx,
                                    ScenarioKind scenario);

/**
 * Relative-miss table for one scenario over the 14 paper workloads:
 * one row per workload plus a final "mean" row — the format of paper
 * Figures 7 and 8.
 */
Table relativeMissTable(ExperimentContext &ctx, ScenarioKind scenario,
                        const std::string &title);

/**
 * One row of mean relative misses per scheme for @p scenario
 * (a column group of paper Figure 9). Values returned in
 * comparedSchemes() order, as fractions of the Base misses.
 */
std::vector<double> meanRelativeMisses(ExperimentContext &ctx,
                                       ScenarioKind scenario);

/** Pretty-print a header line for a bench binary. */
void printHeader(const std::string &what);

/**
 * Print the sweep summary — pair-cache capacity and hit rate, the
 * shard count when sharding is on, and how the context's passes got
 * their access streams (recorded, replayed, direct) — to stderr.
 * Stderr, deliberately:
 * the tables on stdout must stay byte-identical across thread counts
 * (the parallel engine bypasses the context cache), and the golden
 * harness snapshots stdout only.
 */
void printSweepSummary(const ExperimentContext &ctx);

} // namespace atlb::bench

#endif // ANCHORTLB_BENCH_BENCH_UTIL_HH
