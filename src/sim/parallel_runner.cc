#include "parallel_runner.hh"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <utility>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "os/distance_selector.hh"

namespace atlb
{

namespace
{

/** Build-once slot for one pair, freed when its last leaf finishes. */
struct PairSlot
{
    std::string workload;
    ScenarioKind scenario = ScenarioKind::Demand;
    std::once_flag once;
    std::unique_ptr<CellPairState> shared;
    std::atomic<std::size_t> pending{0};
};

/**
 * One pool job: a cell, or one contiguous chunk of an AnchorIdeal
 * cell's candidate ranks (idealRankChunks).
 */
struct Leaf
{
    std::size_t cell = 0; //!< index into the submitted job list
    std::size_t pair = 0; //!< index into the slot list
    /** AnchorIdeal only: the candidate ranks this leaf sweeps. */
    RankChunk ranks{};
};

std::vector<SimResult>
runParallel(const SimOptions &options, const std::vector<CellJob> &jobs,
            unsigned threads)
{
    // --- plan: one slot per distinct pair, one leaf per cell or per
    // --- AnchorIdeal rank chunk ---------------------------------------
    std::vector<std::unique_ptr<PairSlot>> slots;
    std::vector<Leaf> leaves;
    const std::vector<std::uint64_t> distances = candidateDistances();
    const std::vector<RankChunk> chunks =
        idealRankChunks(threads, distances.size());

    const auto slotFor = [&slots](const CellJob &job) {
        for (std::size_t i = 0; i < slots.size(); ++i) {
            if (slots[i]->workload == job.workload &&
                slots[i]->scenario == job.scenario)
                return i;
        }
        auto slot = std::make_unique<PairSlot>();
        slot->workload = job.workload;
        slot->scenario = job.scenario;
        slots.push_back(std::move(slot));
        return slots.size() - 1;
    };

    for (std::size_t cell = 0; cell < jobs.size(); ++cell) {
        const std::size_t pair = slotFor(jobs[cell]);
        if (jobs[cell].scheme == Scheme::AnchorIdeal) {
            for (const RankChunk &ranks : chunks)
                leaves.push_back({cell, pair, ranks});
        } else {
            leaves.push_back({cell, pair, {}});
        }
    }

    // Group leaves by pair so each pair's state has a short lifetime:
    // workers drain the queue in order, so at most ~threads pairs are
    // ever live at once.
    std::stable_sort(leaves.begin(), leaves.end(),
                     [](const Leaf &a, const Leaf &b) {
                         return a.pair < b.pair;
                     });
    for (const Leaf &leaf : leaves)
        slots[leaf.pair]->pending.fetch_add(1,
                                            std::memory_order_relaxed);

    // --- execute -----------------------------------------------------
    std::vector<SimResult> out(jobs.size());
    std::vector<std::vector<AnchorPass>> ideal_runs(jobs.size());
    for (std::size_t cell = 0; cell < jobs.size(); ++cell) {
        if (jobs[cell].scheme == Scheme::AnchorIdeal)
            ideal_runs[cell].resize(distances.size());
    }

    if (leaves.empty())
        return out;

    ThreadPool pool(static_cast<unsigned>(
        std::min<std::size_t>(threads, leaves.size())));
    for (const Leaf &leaf : leaves) {
        pool.submit([&options, &jobs, &distances, &slots, &out,
                     &ideal_runs, leaf] {
            PairSlot &slot = *slots[leaf.pair];
            std::call_once(slot.once, [&slot, &options] {
                slot.shared = std::make_unique<CellPairState>(
                    options, slot.workload, slot.scenario);
            });
            const CellJob &job = jobs[leaf.cell];
            if (job.scheme == Scheme::AnchorIdeal) {
                std::vector<AnchorPass> part = runAnchorPasses(
                    options, *slot.shared, job.scheme,
                    std::span(distances).subspan(
                        leaf.ranks.lo, leaf.ranks.hi - leaf.ranks.lo));
                std::move(part.begin(), part.end(),
                          ideal_runs[leaf.cell].begin() + leaf.ranks.lo);
            } else {
                out[leaf.cell] = runCellJob(options, *slot.shared, job);
            }
            // Last leaf out frees the pair's mapping and tables.
            if (slot.pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
                slot.shared.reset();
        });
    }
    pool.wait();

    // --- reduce AnchorIdeal cells in canonical candidate order so the
    // --- tie-break (first minimum wins) matches the serial sweep ------
    for (std::size_t cell = 0; cell < jobs.size(); ++cell) {
        std::vector<AnchorPass> &passes = ideal_runs[cell];
        if (!passes.empty())
            out[cell] = *std::move(passes[firstMinimumRun(passes)].result);
    }
    return out;
}

/** Distinct (workload, scenario) pairs a job list touches. */
std::size_t
distinctPairs(const std::vector<CellJob> &jobs)
{
    std::vector<std::pair<std::string, ScenarioKind>> seen;
    for (const CellJob &job : jobs) {
        const auto key = std::make_pair(job.workload, job.scenario);
        if (std::find(seen.begin(), seen.end(), key) == seen.end())
            seen.push_back(key);
    }
    return seen.size();
}

std::vector<SimResult>
runSerial(ExperimentContext &ctx, const std::vector<CellJob> &jobs)
{
    // Fit the pair cache to this sweep's shape so workload-major and
    // scenario-major iteration both keep every revisited pair warm
    // (ANCHORTLB_CACHE_PAIRS still clamps when set).
    ctx.sizeCacheForPairs(distinctPairs(jobs));
    std::vector<SimResult> out;
    out.reserve(jobs.size());
    for (const CellJob &job : jobs) {
        out.push_back(ctx.run(job.workload, job.scenario, job.scheme,
                              job.distance_override));
    }
    return out;
}

} // namespace

SimResult
runCellJob(const SimOptions &options, const CellPairState &pair,
           const CellJob &job)
{
    switch (job.scheme) {
      case Scheme::Base:
      case Scheme::Cluster:
        return runSchemeCell(options, pair, pair.plainTable(), job.scheme,
                             0);
      case Scheme::Thp:
      case Scheme::Cluster2MB:
      case Scheme::Rmm:
        return runSchemeCell(options, pair, pair.thpTable(), job.scheme, 0);
      case Scheme::Anchor:
        return runSchemeCell(options, pair, pair.thpTable(), job.scheme,
                             job.distance_override
                                 ? *job.distance_override
                                 : pair.dynamicDistance());
      case Scheme::AnchorIdeal: {
        // Every candidate inside one job, under the call's walk bound;
        // the first minimum in canonical candidate order wins, matching
        // both the serial sweep and the parallel engine's reduction.
        std::vector<AnchorPass> passes = runAnchorPasses(
            options, pair, job.scheme, candidateDistances());
        return *std::move(passes[firstMinimumRun(passes)].result);
      }
    }
    ATLB_FATAL("unhandled scheme in cell job");
}

ParallelRunner::ParallelRunner(SimOptions options)
    : options_(options)
{
    if (options_.threads == 0)
        options_.threads = 1;
}

std::vector<SimResult>
ParallelRunner::run(const std::vector<CellJob> &jobs)
{
    if (options_.threads <= 1) {
        ExperimentContext ctx(options_);
        return runSerial(ctx, jobs);
    }
    return runParallel(options_, jobs, options_.threads);
}

std::vector<SimResult>
runCells(ExperimentContext &ctx, const std::vector<CellJob> &jobs)
{
    if (ctx.options().threads <= 1)
        return runSerial(ctx, jobs);
    return runParallel(ctx.options(), jobs, ctx.options().threads);
}

} // namespace atlb
