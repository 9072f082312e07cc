#include "bench_util.hh"

#include <cstdlib>
#include <iostream>

#include "common/logging.hh"
#include "sim/parallel_runner.hh"
#include "trace/workload.hh"

namespace atlb::bench
{

SimOptions
figureOptions()
{
    SimOptions opts = SimOptions::fromEnv();
    if (!std::getenv("ANCHORTLB_ACCESSES"))
        opts.accesses = 1'000'000;
    return opts;
}

const std::vector<Scheme> &
comparedSchemes()
{
    static const std::vector<Scheme> schemes(std::begin(allSchemes),
                                             std::end(allSchemes));
    return schemes;
}

namespace
{

/** Index of Scheme::Base in comparedSchemes() (the denominator). */
std::size_t
baseSchemeColumn()
{
    const auto &schemes = comparedSchemes();
    for (std::size_t i = 0; i < schemes.size(); ++i)
        if (schemes[i] == Scheme::Base)
            return i;
    ATLB_FATAL("comparedSchemes() must include Scheme::Base");
}

} // namespace

std::vector<SimResult>
scenarioGrid(ExperimentContext &ctx, ScenarioKind scenario)
{
    std::vector<CellJob> jobs;
    for (const auto &workload : paperWorkloadNames())
        for (const Scheme s : comparedSchemes())
            jobs.push_back({workload, scenario, s, {}});
    return runCells(ctx, jobs);
}

Table
relativeMissTable(ExperimentContext &ctx, ScenarioKind scenario,
                  const std::string &title)
{
    std::vector<std::string> headers = {"workload"};
    for (const Scheme s : comparedSchemes())
        headers.emplace_back(schemeName(s));

    Table table(title, headers);
    std::vector<double> sums(comparedSchemes().size(), 0.0);
    const auto workloads = paperWorkloadNames();
    const auto results = scenarioGrid(ctx, scenario);

    // One result row per workload, in comparedSchemes() order; the Base
    // column is the denominator.
    const std::size_t schemes = comparedSchemes().size();
    const std::size_t base_col = baseSchemeColumn();
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const std::uint64_t base =
            results[w * schemes + base_col].misses();
        table.beginRow();
        table.cell(workloads[w]);
        for (std::size_t i = 0; i < schemes; ++i) {
            const double rel =
                relativeMisses(results[w * schemes + i].misses(), base);
            sums[i] += rel;
            table.cellPercent(rel);
        }
    }
    table.beginRow();
    table.cell(std::string("mean"));
    for (const double sum : sums)
        table.cellPercent(sum / static_cast<double>(workloads.size()));
    return table;
}

std::vector<double>
meanRelativeMisses(ExperimentContext &ctx, ScenarioKind scenario)
{
    std::vector<double> sums(comparedSchemes().size(), 0.0);
    const auto workloads = paperWorkloadNames();
    const auto results = scenarioGrid(ctx, scenario);
    const std::size_t schemes = comparedSchemes().size();
    const std::size_t base_col = baseSchemeColumn();
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const std::uint64_t base =
            results[w * schemes + base_col].misses();
        for (std::size_t i = 0; i < schemes; ++i)
            sums[i] += relativeMisses(results[w * schemes + i].misses(),
                                      base);
    }
    for (double &sum : sums)
        sum /= static_cast<double>(workloads.size());
    return sums;
}

void
printSweepSummary(const ExperimentContext &ctx)
{
    const auto &c = ctx.cacheCounters();
    std::cerr << "### sweep summary: pair-cache capacity "
              << ctx.cacheCapacity() << ", " << c.hits << "/" << c.lookups
              << " hits (" << static_cast<int>(c.hitRate() * 100.0 + 0.5)
              << "%)";
    if (ctx.options().shards > 1)
        std::cerr << ", " << ctx.options().shards << " shards/cell";
    std::cerr << "; streams " << c.stream_recorded << " recorded ("
              << c.recording_bytes / 1024 << " KB) / " << c.stream_replayed
              << " replayed / " << c.stream_direct << " direct"
              << "; static ideal " << c.ideal_passes_stopped
              << " passes stopped, " << c.ideal_accesses_skipped
              << " accesses skipped\n";
}

void
printHeader(const std::string &what)
{
    std::cout << "\n### " << what << "\n"
              << "### (shapes comparable to the paper; absolute numbers "
                 "come from the synthetic substrate — see EXPERIMENTS.md)"
              << "\n\n";
}

} // namespace atlb::bench
