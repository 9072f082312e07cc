/**
 * @file
 * The traced replica of one row and the per-layer metrics it yields.
 */

#include <cmath>
#include <optional>
#include <sstream>

#include "bench.hh"
#include "os/distance_selector.hh"
#include "os/table_builder.hh"

namespace perfbench
{

using atlb::MmuStats;
using atlb::PageTable;
using atlb::Scheme;

namespace
{

/** One trace pass of a cell: makeCellTrace, buildSchemeMmu, batches. */
MmuStats
replayPass(const atlb::SimOptions &options, const atlb::CellPairState &pair,
           const PageTable &table, Scheme scheme, std::uint64_t distance,
           SpanRecorder &rec, std::uint64_t request, ReplicaTotals &totals)
{
    const bool synthetic = pair.spec().trace_path.empty();
    const char *open_name = synthetic ? "trace.open" : "ingest.open";
    const char *fill_name = synthetic ? "trace.fill" : "ingest.fill";

    std::unique_ptr<atlb::TraceSource> source;
    {
        const ScopedSpan span(rec, open_name, request);
        source = atlb::makeCellTrace(options, pair.spec(),
                                     atlb::cellAccesses(options, pair.spec()));
    }
    std::unique_ptr<atlb::Mmu> mmu;
    {
        const ScopedSpan span(rec, "mmu.build", request);
        mmu = atlb::buildSchemeMmu(options.mmu, table, pair.map(), scheme,
                                   distance);
    }

    constexpr std::size_t batch = 1024;
    atlb::MemAccess buffer[batch];
    atlb::BatchStats batch_stats;
    for (;;) {
        std::size_t n = 0;
        {
            const ScopedSpan span(rec, fill_name, request);
            n = source->fill(buffer, batch);
        }
        if (n == 0)
            break;
        const ScopedSpan span(rec, "mmu.translate", request);
        mmu->translateBatch(buffer, n, batch_stats);
    }

    const MmuStats stats = mmu->stats();
    (synthetic ? totals.trace_accesses : totals.ingest_accesses) +=
        stats.accesses;
    totals.mmu += stats;
    totals.batch += batch_stats;
    totals.scheme_accesses[scheme] += stats.accesses;
    ++totals.passes;
    return stats;
}

} // namespace

std::vector<MmuStats>
replayRow(const atlb::SimOptions &options, const std::string &workload,
          atlb::ScenarioKind scenario, AnchorTables anchors,
          SpanRecorder &rec, std::uint64_t request, ReplicaTotals &totals)
{
    totals.row_spans.push_back(rec.begin("sim.row", request));
    std::map<Scheme, std::uint32_t> &cells = totals.cell_spans.emplace_back();
    std::optional<atlb::CellPairState> pair;
    bool plain_built = false;
    bool thp_built = false;
    std::optional<PageTable> swept; // AnchorTables::SweepInPlace
    std::uint64_t swept_distance = 0;
    std::vector<MmuStats> row;

    for (const Scheme scheme : atlb::allSchemes) {
        cells[scheme] = rec.begin("sim.cell", request);
        if (!pair) {
            const ScopedSpan span(rec, "os.pair_build", request);
            pair.emplace(options, workload, scenario);
            ++totals.pair_builds;
        }

        const PageTable *table = nullptr;
        std::vector<std::uint64_t> distances{0};
        switch (scheme) {
          case Scheme::Base:
          case Scheme::Cluster: {
            const ScopedSpan span(rec, "os.plain_table", request);
            table = &pair->plainTable();
            totals.table_builds += plain_built ? 0 : 1;
            plain_built = true;
            break;
          }
          case Scheme::Thp:
          case Scheme::Cluster2MB:
          case Scheme::Rmm: {
            const ScopedSpan span(rec, "os.thp_table", request);
            table = &pair->thpTable();
            totals.table_builds += thp_built ? 0 : 1;
            thp_built = true;
            break;
          }
          case Scheme::Anchor:
            distances = {pair->dynamicDistance()};
            break;
          case Scheme::AnchorIdeal:
            distances = atlb::candidateDistances();
            break;
        }

        std::optional<MmuStats> best;
        for (const std::uint64_t distance : distances) {
            const ScopedSpan pass(rec, "sim.pass", request);
            std::optional<PageTable> anchor_table;
            if (scheme == Scheme::Anchor || scheme == Scheme::AnchorIdeal) {
                const ScopedSpan span(rec, "os.anchor_table", request);
                const atlb::AnchorDist dist =
                    atlb::AnchorDist::fromPages(distance);
                if (anchors == AnchorTables::BuildPerPass) {
                    anchor_table.emplace(
                        atlb::buildAnchorPageTable(pair->map(), dist));
                    table = &*anchor_table;
                    ++totals.anchor_tables;
                } else {
                    if (!swept) {
                        swept.emplace(atlb::buildPageTable(pair->map(), true));
                        ++totals.table_builds;
                    }
                    if (swept_distance != distance) {
                        swept->sweepAnchors(pair->map(), dist);
                        swept_distance = distance;
                        ++totals.anchor_tables;
                    }
                    table = &*swept;
                }
            }
            const MmuStats stats = replayPass(options, *pair, *table, scheme,
                                              distance, rec, request, totals);
            // First minimum, the simulator's Static Ideal tie-break.
            if (!best || stats.page_walks < best->page_walks)
                best = stats;
        }
        row.push_back(*best);
        rec.end(); // sim.cell
    }
    rec.end(); // sim.row
    ++totals.rows;
    return row;
}

void
emitReplicaMetrics(Outcome &out, const std::vector<Span> &spans,
                   const ReplicaTotals &totals, double untraced_row_s)
{
    const auto rows = static_cast<double>(totals.rows);
    std::map<std::string, double> layer_s;  // self time, summed over rows
    std::map<std::string, double> name_s;   // span time by name
    std::map<Scheme, double> cell_s;
    std::map<Scheme, double> kernel_s;
    double row_wall_s = 0.0;
    double worst_gap = 0.0;

    for (std::size_t r = 0; r < totals.row_spans.size(); ++r) {
        const std::uint32_t root = totals.row_spans[r];
        const double wall = static_cast<double>(spans[root].duration()) / 1e9;
        row_wall_s += wall;
        double self_sum = 0.0;
        for (const auto &[layer, ns] : layerSelfNs(spans, root)) {
            layer_s[layer] += static_cast<double>(ns) / 1e9;
            self_sum += static_cast<double>(ns) / 1e9;
        }
        const double gap = std::fabs(self_sum - wall) / wall;
        worst_gap = std::max(worst_gap, gap);
        out.check(gap <= 0.05, "traced row " + std::to_string(r) +
                                   ": layer self times sum to " +
                                   std::to_string(self_sum) + " s of " +
                                   std::to_string(wall) + " s wall");
        for (const std::uint32_t i : subtree(spans, root))
            name_s[spans[i].name] +=
                static_cast<double>(spans[i].duration()) / 1e9;
        for (const auto &[scheme, cell] : totals.cell_spans[r]) {
            cell_s[scheme] += static_cast<double>(spans[cell].duration()) / 1e9;
            for (const std::uint32_t i : subtree(spans, cell)) {
                if (std::string(spans[i].name) == "mmu.translate")
                    kernel_s[scheme] +=
                        static_cast<double>(spans[i].duration()) / 1e9;
            }
        }
    }

    const auto perRow = [&](double v) { return rows > 0 ? v / rows : 0.0; };
    const auto nsPer = [](double s, std::uint64_t n) {
        return n ? s * 1e9 / static_cast<double>(n) : 0.0;
    };
    const auto frac = [](std::uint64_t a, std::uint64_t b) {
        return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };

    out.metric("os.pair_build_s", perRow(name_s["os.pair_build"]), "s");
    out.metric("os.pair_builds",
               perRow(static_cast<double>(totals.pair_builds)), "count");
    out.metric("os.plain_table_s", perRow(name_s["os.plain_table"]), "s");
    out.metric("os.thp_table_s", perRow(name_s["os.thp_table"]), "s");
    out.metric("os.table_builds",
               perRow(static_cast<double>(totals.table_builds)), "count");
    out.metric("os.anchor_table_s", perRow(name_s["os.anchor_table"]), "s");
    out.metric("os.anchor_tables",
               perRow(static_cast<double>(totals.anchor_tables)), "count");
    out.metric("os.self_s", perRow(layer_s["os"]), "s");

    const double gen_s = name_s["trace.open"] + name_s["trace.fill"];
    out.metric("trace.gen_s", perRow(gen_s), "s");
    out.metric("trace.gen_ns_per_access", nsPer(gen_s, totals.trace_accesses),
               "ns");
    out.metric("trace.accesses",
               perRow(static_cast<double>(totals.trace_accesses)), "count");
    out.metric("trace.self_s", perRow(layer_s["trace"]), "s");

    const double decode_s = name_s["ingest.open"] + name_s["ingest.fill"];
    out.metric("ingest.decode_s", perRow(decode_s), "s");
    out.metric("ingest.decode_ns_per_access",
               nsPer(decode_s, totals.ingest_accesses), "ns");
    out.metric("ingest.accesses",
               perRow(static_cast<double>(totals.ingest_accesses)), "count");
    out.metric("ingest.self_s", perRow(layer_s["ingest"]), "s");

    const double kernel = name_s["mmu.translate"];
    out.metric("mmu.kernel_s", perRow(kernel), "s");
    out.metric("mmu.kernel_ns_per_access", nsPer(kernel, totals.mmu.accesses),
               "ns");
    out.metric("mmu.accesses", perRow(static_cast<double>(totals.mmu.accesses)),
               "count");
    out.metric("mmu.l0_filtered_frac",
               frac(totals.batch.l0_filtered, totals.batch.accesses),
               "fraction");
    out.metric("mmu.l1_hit_frac", frac(totals.mmu.l1_hits, totals.mmu.accesses),
               "fraction");
    out.metric("mmu.coalesced_hit_frac",
               frac(totals.mmu.coalesced_hits, totals.mmu.accesses),
               "fraction");
    out.metric("mmu.walks_per_kaccess",
               1000.0 * frac(totals.mmu.page_walks, totals.mmu.accesses),
               "1/kaccess");
    out.metric("mmu.self_s", perRow(layer_s["mmu"]), "s");
    for (const Scheme scheme : atlb::allSchemes) {
        const auto it = totals.scheme_accesses.find(scheme);
        out.metric("mmu." + schemeSlug(scheme) + ".kernel_ns_per_access",
                   nsPer(kernel_s[scheme],
                         it == totals.scheme_accesses.end() ? 0 : it->second),
                   "ns");
    }

    for (const Scheme scheme : atlb::allSchemes)
        out.metric("sim." + schemeSlug(scheme) + ".cell_s",
                   perRow(cell_s[scheme]), "s");
    out.metric("sim.passes", perRow(static_cast<double>(totals.passes)),
               "count");
    out.metric("sim.self_s", perRow(layer_s["sim"]), "s");
    out.metric("sim.row_s", perRow(row_wall_s), "s");
    out.metric("sim.self_sum_gap_frac", worst_gap, "fraction");
    out.metric("sim.trace_overhead_frac",
               untraced_row_s > 0.0
                   ? perRow(row_wall_s) / untraced_row_s - 1.0
                   : 0.0,
               "fraction");

    std::ostringstream split;
    split << "per-layer self time of a traced row (s):";
    for (const auto &[layer, s] : layer_s)
        split << " " << layer << "=" << perRow(s);
    split << " | wall=" << perRow(row_wall_s);
    out.note(split.str());
}

void
emitServeLayerZeros(Outcome &out)
{
    for (const char *name :
         {"serve.store_lookup_us", "serve.store_append_us", "serve.wire_us",
          "serve.queue_wait_us_p50", "serve.queue_wait_us_p99"})
        out.metric(name, 0.0, "us");
    for (const char *name : {"serve.hit_frac", "serve.pair_reuse_frac"})
        out.metric(name, 0.0, "fraction");
    for (const char *name : {"serve.dedups", "serve.simulations",
                             "serve.cell_errors", "serve.admission_stalls"})
        out.metric(name, 0.0, "count");
    for (const char *name :
         {"serve.hit_req_p50_ms", "serve.hit_req_p99_ms",
          "serve.miss_req_p50_ms", "serve.miss_req_p90_ms"})
        out.metric(name, 0.0, "ms");
}

void
emitModelZeros(Outcome &out)
{
    for (const char *name : {"model.dynamic_rel_misses",
                             "model.ideal_rel_misses"})
        out.metric(name, 0.0, "fraction");
    for (const char *name : {"model.dynamic_distance", "model.ideal_distance"})
        out.metric(name, 0.0, "pages");
}

} // namespace perfbench
