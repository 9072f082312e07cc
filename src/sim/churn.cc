#include "churn.hh"

#include <memory>

#include "common/logging.hh"
#include "mmu/anchor_mmu.hh"
#include "mmu/baseline_mmu.hh"
#include "mmu/cluster_mmu.hh"
#include "mmu/rmm_mmu.hh"
#include "os/distance_selector.hh"
#include "os/table_builder.hh"
#include "trace/workload.hh"

namespace atlb
{

ChurnResult
runMappingChurn(Scheme scheme, const std::vector<ChurnEpoch> &epochs,
                const ChurnOptions &options)
{
    ATLB_ASSERT(!epochs.empty(), "no churn epochs");

    WorkloadSpec spec = findWorkload(options.workload);
    spec.footprint_bytes = static_cast<std::uint64_t>(
        static_cast<double>(spec.footprint_bytes) *
        options.footprint_scale);
    if (spec.footprint_bytes < pageBytes)
        spec.footprint_bytes = pageBytes;

    ScenarioParams params;
    params.footprint_pages = spec.footprintPages();
    params.demand_run_pages = spec.demand_run_pages;
    params.eager_run_pages = spec.eager_run_pages;
    params.demand_churn = spec.demand_churn;
    params.map_tail_run_pages = spec.map_tail_run_pages;
    params.map_tail_fraction = spec.map_tail_fraction;

    const bool is_anchor =
        scheme == Scheme::Anchor || scheme == Scheme::AnchorIdeal;
    const bool use_thp =
        scheme == Scheme::Thp || scheme == Scheme::Cluster2MB ||
        scheme == Scheme::Rmm || is_anchor;

    DistanceController controller(8, options.distance_threshold);
    ChurnResult result;

    // The workload's access stream is continuous across epochs: the
    // process doesn't notice its pages moving (that's the point of
    // virtual memory).
    PatternTrace trace(spec, vaOf(params.va_base), ~0ULL,
                       options.seed * 31);

    MemoryMap map;
    PageTable table;
    std::unique_ptr<Mmu> mmu;

    for (const ChurnEpoch &epoch : epochs) {
        params.seed = epoch.seed;
        MemoryMap next = buildScenario(epoch.scenario, params);

        ChurnResult::EpochStats es;
        es.scenario = scenarioName(epoch.scenario);

        // OS work at the boundary: rebuild the table, re-run the
        // distance controller, count the entries the paper's anchor
        // sweep touches (the table already stores every distance's
        // contiguity), shoot down.
        if (is_anchor) {
            es.distance_changed =
                controller.epoch(next.contiguityHistogram());
            map = std::move(next);
            table = buildPageTable(map, true);
            es.sweep_touched = table.sweepAnchors(
                map, AnchorDist::fromPages(controller.distance()));
            es.anchor_distance = controller.distance();
            if (es.distance_changed)
                ++result.distance_changes;
        } else {
            map = std::move(next);
            table = buildPageTable(map, use_thp);
        }

        if (!mmu) {
            const MmuConfig &cfg = options.mmu;
            switch (scheme) {
              case Scheme::Base:
                mmu = std::make_unique<BaselineMmu>(cfg, table, "base");
                break;
              case Scheme::Thp:
                mmu = std::make_unique<BaselineMmu>(cfg, table, "thp");
                break;
              case Scheme::Cluster:
                mmu = std::make_unique<ClusterMmu>(cfg, table, false);
                break;
              case Scheme::Cluster2MB:
                mmu = std::make_unique<ClusterMmu>(cfg, table, true);
                break;
              case Scheme::Rmm:
                mmu = std::make_unique<RmmMmu>(cfg, table, map);
                break;
              case Scheme::Anchor:
              case Scheme::AnchorIdeal:
                mmu = std::make_unique<AnchorMmu>(
                    cfg, table,
                    AnchorDist::fromPages(controller.distance()));
                break;
            }
        } else {
            ProcessContext ctx;
            ctx.table = &table;
            ctx.map = &map;
            ctx.anchor_distance =
                is_anchor ? AnchorDist::fromPages(controller.distance())
                          : AnchorDist{};
            mmu->switchProcess(ctx);
        }

        const std::uint64_t misses_before = mmu->stats().page_walks;
        MemAccess access;
        for (std::uint64_t i = 0; i < epoch.accesses; ++i) {
            trace.next(access);
            mmu->translate(access.vaddr);
        }
        es.accesses = epoch.accesses;
        es.misses = mmu->stats().page_walks - misses_before;
        result.epochs.push_back(es);
    }
    result.stats = mmu->stats();
    return result;
}

} // namespace atlb
