#include "parallel_runner.hh"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <utility>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "os/distance_selector.hh"
#include "os/table_builder.hh"

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

constexpr std::size_t noIdealRank = ~static_cast<std::size_t>(0);

/** One simulation: a cell, or one AnchorIdeal distance candidate. */
struct Leaf
{
    std::size_t cell = 0; //!< index into the submitted job list
    std::size_t pair = 0; //!< index into the slot list
    Scheme scheme = Scheme::Base;
    std::optional<std::uint64_t> distance_override{};
    /** AnchorIdeal only: candidate index and its distance. */
    std::size_t ideal_rank = noIdealRank;
    std::uint64_t ideal_distance = 0;
};

SimResult
runLeaf(const Leaf &leaf, const CellPairState &pair,
        const SimOptions &options)
{
    if (leaf.ideal_rank != noIdealRank) {
        // One AnchorIdeal distance candidate; the reduction after the
        // pool drains picks the canonical first minimum across ranks.
        const PageTable table = buildAnchorPageTable(
            pair.map(), AnchorDist::fromPages(leaf.ideal_distance));
        return runSchemeCell(options, pair, table, Scheme::AnchorIdeal,
                             leaf.ideal_distance);
    }
    CellJob job;
    job.workload = pair.workload();
    job.scenario = pair.scenario();
    job.scheme = leaf.scheme;
    job.distance_override = leaf.distance_override;
    return runCellJob(options, pair, job);
}

std::vector<SimResult>
runParallel(const SimOptions &options, const std::vector<CellJob> &jobs,
            unsigned threads)
{
    // --- plan: one slot per distinct pair, one leaf per simulation ---
    std::vector<std::unique_ptr<PairSlot>> slots;
    std::vector<Leaf> leaves;
    const std::vector<std::uint64_t> distances = candidateDistances();

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
        const CellJob &job = jobs[cell];
        const std::size_t pair = slotFor(job);
        if (job.scheme == Scheme::AnchorIdeal) {
            for (std::size_t r = 0; r < distances.size(); ++r) {
                Leaf leaf;
                leaf.cell = cell;
                leaf.pair = pair;
                leaf.scheme = job.scheme;
                leaf.ideal_rank = r;
                leaf.ideal_distance = distances[r];
                leaves.push_back(leaf);
            }
        } else {
            Leaf leaf;
            leaf.cell = cell;
            leaf.pair = pair;
            leaf.scheme = job.scheme;
            leaf.distance_override = job.distance_override;
            leaves.push_back(leaf);
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
    std::vector<std::vector<SimResult>> ideal_runs(jobs.size());
    for (const Leaf &leaf : leaves) {
        if (leaf.ideal_rank != noIdealRank &&
            ideal_runs[leaf.cell].empty())
            ideal_runs[leaf.cell].resize(distances.size());
    }

    if (leaves.empty())
        return out;

    ThreadPool pool(static_cast<unsigned>(
        std::min<std::size_t>(threads, leaves.size())));
    for (const Leaf &leaf : leaves) {
        pool.submit([&options, &slots, &out, &ideal_runs, leaf] {
            PairSlot &slot = *slots[leaf.pair];
            std::call_once(slot.once, [&slot, &options] {
                slot.shared = std::make_unique<CellPairState>(
                    options, slot.workload, slot.scenario);
            });
            SimResult res = runLeaf(leaf, *slot.shared, options);
            if (leaf.ideal_rank == noIdealRank)
                out[leaf.cell] = std::move(res);
            else
                ideal_runs[leaf.cell][leaf.ideal_rank] = std::move(res);
            // Last leaf out frees the pair's mapping and tables.
            if (slot.pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
                slot.shared.reset();
        });
    }
    pool.wait();

    // --- reduce AnchorIdeal cells in canonical candidate order so the
    // --- tie-break (first minimum wins) matches the serial sweep ------
    for (std::size_t cell = 0; cell < jobs.size(); ++cell) {
        if (ideal_runs[cell].empty())
            continue;
        std::size_t best = 0;
        for (std::size_t r = 1; r < ideal_runs[cell].size(); ++r) {
            if (ideal_runs[cell][r].misses() <
                ideal_runs[cell][best].misses())
                best = r;
        }
        out[cell] = std::move(ideal_runs[cell][best]);
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
      case Scheme::Anchor: {
        const std::uint64_t distance = job.distance_override
                                           ? *job.distance_override
                                           : pair.dynamicDistance();
        const PageTable table = buildAnchorPageTable(
            pair.map(), AnchorDist::fromPages(distance));
        return runSchemeCell(options, pair, table, job.scheme, distance);
      }
      case Scheme::AnchorIdeal: {
        // Exhaustive distance sweep inside one job; the first minimum
        // in canonical candidate order wins, matching both the serial
        // sweep and the parallel engine's reduction.
        const std::vector<std::uint64_t> distances = candidateDistances();
        ATLB_ASSERT(!distances.empty(), "no candidate anchor distances");
        SimResult best;
        bool have_best = false;
        for (const std::uint64_t distance : distances) {
            const PageTable table = buildAnchorPageTable(
                pair.map(), AnchorDist::fromPages(distance));
            SimResult res = runSchemeCell(options, pair, table, job.scheme,
                                          distance);
            if (!have_best || res.misses() < best.misses()) {
                best = std::move(res);
                have_best = true;
            }
        }
        return best;
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
