#include "experiment.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <numeric>
#include <vector>

#include "common/env.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "ingest/trace_open.hh"
#include "mmu/anchor_mmu.hh"
#include "mmu/baseline_mmu.hh"
#include "mmu/cluster_mmu.hh"
#include "mmu/rmm_mmu.hh"
#include "os/distance_selector.hh"
#include "os/table_builder.hh"
#include "sim/sharded_runner.hh"

namespace atlb
{

SimOptions
SimOptions::fromEnv()
{
    SimOptions opts;
    opts.accesses = envU64("ANCHORTLB_ACCESSES", opts.accesses);
    opts.footprint_scale =
        envDouble("ANCHORTLB_SCALE", opts.footprint_scale);
    opts.seed = envU64("ANCHORTLB_SEED", opts.seed);
    opts.threads = configuredThreadCount();
    opts.cache_pairs_from_env = envPresent("ANCHORTLB_CACHE_PAIRS");
    opts.cache_pairs = static_cast<std::size_t>(
        envU64("ANCHORTLB_CACHE_PAIRS", opts.cache_pairs));
    opts.shards = static_cast<unsigned>(
        envU64("ANCHORTLB_SHARDS", opts.shards));
    opts.shard_warmup =
        envU64("ANCHORTLB_SHARD_WARMUP", opts.shard_warmup);
    if (envPresent("ANCHORTLB_PER_ACCESS"))
        opts.translate_mode = TranslateMode::PerAccess;
    if (opts.accesses == 0)
        ATLB_FATAL("ANCHORTLB_ACCESSES must be positive");
    if (opts.footprint_scale <= 0.0 || opts.footprint_scale > 1.0)
        ATLB_FATAL("ANCHORTLB_SCALE must be in (0, 1]");
    if (opts.cache_pairs == 0)
        ATLB_FATAL("ANCHORTLB_CACHE_PAIRS must be >= 1");
    if (opts.shards == 0)
        ATLB_FATAL("ANCHORTLB_SHARDS must be >= 1");
    return opts;
}

namespace
{

/** Workload-name prefix selecting a trace-driven workload. */
constexpr const char *traceWorkloadPrefix = "trace:";

/**
 * Sanity cap on a trace-driven footprint (pages): a capture whose vaddr
 * span exceeds this was almost certainly imported without rebasing.
 */
constexpr std::uint64_t maxTraceFootprintPages = 1ULL << 25; // 128GB

WorkloadSpec
traceWorkloadSpec(const std::string &workload, const std::string &path)
{
    const TraceFileInfo info = inspectTraceFile(path);
    if (info.accesses == 0)
        ATLB_FATAL("trace '{}' is empty; nothing to simulate", path);
    if (info.min_vaddr < traceBaseVa().raw())
        ATLB_FATAL("trace '{}' touches vaddr {} below the simulated "
                   "region base {}; re-import it with --rebase",
                   path, info.min_vaddr, traceBaseVa());
    WorkloadSpec spec;
    spec.name = workload;
    spec.trace_path = path;
    spec.trace_accesses = info.accesses;
    spec.footprint_bytes = info.max_vaddr + 1 - traceBaseVa().raw();
    if (spec.footprintPages() > maxTraceFootprintPages)
        ATLB_FATAL("trace '{}' spans {} pages from the region base "
                   "(cap {}); re-import it with --rebase to compact "
                   "the address range",
                   path, spec.footprintPages(), maxTraceFootprintPages);
    return spec;
}

} // namespace

std::uint64_t
traceContentHash(const std::string &workload)
{
    if (workload.rfind(traceWorkloadPrefix, 0) != 0)
        return 0;
    const std::string path =
        workload.substr(std::strlen(traceWorkloadPrefix));
    std::uint64_t digest = 0;
    if (!fnv1a64File(path, digest))
        ATLB_FATAL("cannot read trace '{}' to content-hash it", path);
    return digest;
}

CellKey
cellKeyFor(const SimOptions &options, const CellSpec &spec,
           std::uint64_t trace_content_hash)
{
    // run() consults the distance override only for Scheme::Anchor;
    // canonicalize so a stray override on another scheme cannot split
    // one cell into two keys.
    const bool overridden = spec.scheme == Scheme::Anchor &&
                            spec.distance_override.has_value();

    Fnv1a h;
    h.addU64(1) // key format version: bump on any field change below
        .addString(spec.workload)
        .addString(scenarioName(spec.scenario))
        .addString(schemeName(spec.scheme))
        .addBool(overridden)
        .addU64(overridden ? *spec.distance_override : 0)
        .addU64(trace_content_hash);

    // The SimOptions knobs that shape result bytes. threads,
    // cache_pairs and translate_mode are deliberately absent: the test
    // suite pins them to byte-identical results.
    h.addU64(options.accesses)
        .addU64(options.seed)
        .addDouble(options.footprint_scale)
        .addU64(options.shards)
        .addU64(options.shard_warmup);

    // Every MmuConfig field, declaration order. Keep in sync with
    // mmu_config.hh: a new field must be folded here (and the version
    // above bumped if its default changes existing cells' meaning).
    const MmuConfig &m = options.mmu;
    h.addU64(m.l1_4k_entries)
        .addU64(m.l1_4k_ways)
        .addU64(m.l1_2m_entries)
        .addU64(m.l1_2m_ways)
        .addU64(m.l2_entries)
        .addU64(m.l2_ways)
        .addU64(m.l2_1g_entries)
        .addU64(m.l2_1g_ways)
        .addU64(m.cluster_regular_entries)
        .addU64(m.cluster_regular_ways)
        .addU64(m.cluster_entries)
        .addU64(m.cluster_ways)
        .addU64(m.cluster_span)
        .addU64(m.colt_fa_entries)
        .addU64(m.colt_fa_max_pages)
        .addU64(m.colt_fa_min_pages)
        .addU64(m.range_entries)
        .addU64(m.rmm_min_range_pages)
        .addU64(m.l2_hit_cycles)
        .addU64(m.coalesced_hit_cycles)
        .addU64(m.walk_cycles)
        .addBool(m.pwc_enabled)
        .addU64(m.pwc_pml4e_entries)
        .addU64(m.pwc_pdpte_entries)
        .addU64(m.pwc_pde_entries)
        .addU64(m.pwc_mem_ref_cycles)
        .addU64(m.max_contiguity)
        .addU64(m.nested_ref_cycles)
        .addU64(m.shootdown_initiator_cycles)
        .addU64(m.shootdown_responder_cycles)
        .addU64(m.shootdown_page_cycles)
        .addU64(m.shootdown_full_flush_pages);

    return CellKey{h.digest()};
}

WorkloadSpec
scaledWorkloadSpec(const SimOptions &options, const std::string &workload)
{
    if (workload.rfind(traceWorkloadPrefix, 0) == 0) {
        // Trace-driven: footprint comes from the capture's own vaddr
        // bounds, so footprint_scale does not apply.
        return traceWorkloadSpec(
            workload, workload.substr(std::strlen(traceWorkloadPrefix)));
    }
    WorkloadSpec spec = findWorkload(workload);
    spec.footprint_bytes = static_cast<std::uint64_t>(
        static_cast<double>(spec.footprint_bytes) *
        options.footprint_scale);
    if (spec.footprint_bytes < pageBytes)
        spec.footprint_bytes = pageBytes;
    return spec;
}

ScenarioParams
scenarioParamsFor(const SimOptions &options, const WorkloadSpec &spec)
{
    ScenarioParams p;
    p.footprint_pages = spec.footprintPages();
    p.seed = options.seed * 0x9e3779b9ULL + std::hash<std::string>{}(
                                                spec.name);
    p.demand_run_pages = spec.demand_run_pages;
    p.eager_run_pages = spec.eager_run_pages;
    p.demand_churn = spec.demand_churn;
    p.map_tail_run_pages = spec.map_tail_run_pages;
    p.map_tail_fraction = spec.map_tail_fraction;
    return p;
}

std::uint64_t
traceSeedFor(const SimOptions &options, const WorkloadSpec &spec)
{
    return options.seed ^ (std::hash<std::string>{}(spec.name) * 31 + 7);
}

std::uint64_t
cellAccesses(const SimOptions &options, const WorkloadSpec &spec)
{
    if (!spec.traceDriven())
        return options.accesses;
    return std::min(options.accesses, spec.trace_accesses);
}

std::unique_ptr<TraceSource>
makeCellTrace(const SimOptions &options, const WorkloadSpec &spec,
              std::uint64_t num_accesses)
{
    if (spec.traceDriven()) {
        return std::make_unique<ClampedTraceSource>(
            openTraceFile(spec.trace_path), num_accesses);
    }
    return std::make_unique<PatternTrace>(spec, traceBaseVa(),
                                          num_accesses,
                                          traceSeedFor(options, spec));
}

std::unique_ptr<Mmu>
buildSchemeMmu(const MmuConfig &config, const PageTable &table,
               const MemoryMap &map, Scheme scheme,
               std::uint64_t anchor_distance)
{
    switch (scheme) {
      case Scheme::Base:
        return std::make_unique<BaselineMmu>(config, table, "base");
      case Scheme::Thp:
        return std::make_unique<BaselineMmu>(config, table, "thp");
      case Scheme::Cluster:
        return std::make_unique<ClusterMmu>(config, table, false);
      case Scheme::Cluster2MB:
        return std::make_unique<ClusterMmu>(config, table, true);
      case Scheme::Rmm:
        return std::make_unique<RmmMmu>(config, table, map);
      case Scheme::Anchor:
      case Scheme::AnchorIdeal:
        return std::make_unique<AnchorMmu>(
            config, table, AnchorDist::fromPages(anchor_distance));
    }
    ATLB_FATAL("no MMU built for scheme");
}

namespace
{

/**
 * The cell body shared by both runSchemeCell overloads: one pass of
 * @p trace, or run by run over @p replay when it is set and the pass
 * runs in batch mode.
 */
SimResult
simulateCell(const SimOptions &options, const WorkloadSpec &spec,
             ScenarioKind scenario, const MemoryMap &map,
             const PageTable &table, Scheme scheme,
             std::uint64_t anchor_distance, TraceSource &trace,
             const RunRecording *replay = nullptr,
             std::optional<std::uint64_t> walk_bound = {})
{
    const std::unique_ptr<Mmu> mmu =
        buildSchemeMmu(options.mmu, table, map, scheme, anchor_distance);

    SimResult res =
        replay && options.translate_mode == TranslateMode::Batch
            ? runSimulation(*mmu, *replay, spec.mem_per_instr, walk_bound)
            : runSimulation(*mmu, trace, spec.mem_per_instr,
                            options.translate_mode, nullptr, walk_bound);
    res.workload = spec.name;
    res.scenario = scenarioName(scenario);
    res.scheme = schemeName(scheme);
    if (scheme == Scheme::Anchor || scheme == Scheme::AnchorIdeal)
        res.anchor_distance = anchor_distance;
    return res;
}

} // namespace

SimResult
runSchemeCell(const SimOptions &options, const WorkloadSpec &spec,
              ScenarioKind scenario, const MemoryMap &map,
              const PageTable &table, Scheme scheme,
              std::uint64_t anchor_distance)
{
    // K > 1 routes the cell through the sharded runner; shards == 1 is
    // the exact serial walk below (the byte-identity anchor every
    // sharded-mode test compares against).
    if (options.shards > 1) {
        return runShardedCell(options, spec, scenario, map, table,
                              scheme, anchor_distance)
            .merged;
    }

    const std::unique_ptr<TraceSource> trace =
        makeCellTrace(options, spec, cellAccesses(options, spec));
    return simulateCell(options, spec, scenario, map, table, scheme,
                        anchor_distance, *trace);
}

SimResult
runSchemeCell(const SimOptions &options, const CellPairState &pair,
              const PageTable &table, Scheme scheme,
              std::uint64_t anchor_distance, StreamUse *use,
              std::optional<std::uint64_t> walk_bound)
{
    if (options.shards > 1) {
        if (use)
            *use = StreamUse::Direct;
        return runSchemeCell(options, pair.spec(), pair.scenario(),
                             pair.map(), table, scheme, anchor_distance);
    }

    CellPairState::Stream stream = pair.openStream(options);
    // The recording pass must see the whole stream: the recording it
    // publishes is every later pass's stream.
    if (stream.use == StreamUse::Recorded)
        walk_bound.reset();
    SimResult res = simulateCell(options, pair.spec(), pair.scenario(),
                                 pair.map(), table, scheme, anchor_distance,
                                 *stream.source, stream.replay.get(),
                                 walk_bound);
    const StreamUse used = pair.closeStream(stream);
    if (use)
        *use = used;
    return res;
}

namespace
{

/**
 * runAnchorPasses' visit order over @p distances: the indices sorted
 * by rank distance from @p dynamic's rung of the candidate ladder, the
 * lower rank first on ties.
 */
std::vector<std::size_t>
visitOrder(std::span<const std::uint64_t> distances, std::uint64_t dynamic)
{
    const auto rungsAway = [dynamic](std::uint64_t distance) {
        const int away = static_cast<int>(std::bit_width(distance)) -
                         static_cast<int>(std::bit_width(dynamic));
        return away < 0 ? -away : away;
    };
    std::vector<std::size_t> order(distances.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return rungsAway(distances[a]) <
                                rungsAway(distances[b]);
                     });
    return order;
}

} // namespace

std::vector<AnchorPass>
runAnchorPasses(const SimOptions &options, const CellPairState &pair,
                Scheme scheme, std::span<const std::uint64_t> distances)
{
    const std::uint64_t accesses = cellAccesses(options, pair.spec());
    std::vector<AnchorPass> passes(distances.size());
    std::optional<std::uint64_t> bound;
    for (const std::size_t i : visitOrder(distances, pair.dynamicDistance())) {
        AnchorPass &pass = passes[i];
        SimResult res =
            runSchemeCell(options, pair, pair.thpTable(), scheme,
                          distances[i], &pass.use, bound);
        pass.skipped = accesses - res.stats.accesses;
        if (bound && res.misses() > *bound)
            continue;
        bound = res.misses();
        pass.result = std::move(res);
    }
    return passes;
}

std::vector<RankChunk>
idealRankChunks(unsigned threads, std::size_t candidates)
{
    const std::size_t n = std::clamp<std::size_t>(
        threads, 1, std::max<std::size_t>(candidates, 1));
    std::vector<RankChunk> chunks;
    chunks.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        chunks.push_back({candidates * i / n, candidates * (i + 1) / n});
    return chunks;
}

std::size_t
firstMinimumRun(const std::vector<AnchorPass> &passes)
{
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < passes.size(); ++i) {
        if (passes[i].result &&
            (!best || passes[i].result->misses() <
                          passes[*best].result->misses()))
            best = i;
    }
    ATLB_ASSERT(best.has_value(), "no finished Static Ideal pass");
    return *best;
}

CellPairState::CellPairState(const SimOptions &options,
                             std::string workload, ScenarioKind scenario)
    : workload_(std::move(workload)), scenario_(scenario),
      spec_(scaledWorkloadSpec(options, workload_)),
      map_(buildScenario(scenario_, scenarioParamsFor(options, spec_)))
{
    dynamic_distance_ =
        selectAnchorDistance(map_.contiguityHistogram()).distance;
    thp_differs_ = hasPromotableHugeBlock(map_);
}

const PageTable &
CellPairState::plainTable() const
{
    std::call_once(plain_once_, [this] {
        plain_table_ = buildPageTable(map_, false);
    });
    return *plain_table_;
}

const PageTable &
CellPairState::thpTable() const
{
    if (!thp_differs_)
        return plainTable();
    std::call_once(thp_once_, [this] {
        thp_table_ = buildPageTable(map_, true);
    });
    return *thp_table_;
}

CellPairState::Stream
CellPairState::openStream(const SimOptions &options) const
{
    const std::uint64_t accesses = cellAccesses(options, spec_);
    const std::uint64_t trace_seed = traceSeedFor(options, spec_);
    Stream stream;
    {
        const std::lock_guard<std::mutex> lock(record_.m);
        switch (record_.state) {
          case RecordingState::None:
            record_.state = RecordingState::Recording;
            record_.trace_seed = trace_seed;
            record_.accesses = accesses;
            stream.use = StreamUse::Recorded;
            break;
          case RecordingState::Kept:
            if (record_.trace_seed == trace_seed &&
                record_.accesses == accesses) {
                stream.replay = record_.recording;
                stream.source =
                    std::make_unique<RecordingReplay>(record_.recording);
                stream.use = StreamUse::Replayed;
                return stream;
            }
            break;
          case RecordingState::Recording:
          case RecordingState::Abandoned:
            break;
        }
    }
    // Opening the direct source (a file, for trace-driven pairs) runs
    // outside the lock.
    stream.source = makeCellTrace(options, spec_, accesses);
    if (stream.use == StreamUse::Recorded) {
        stream.recording = std::make_unique<RunRecording>(
            RunRecording::budgetFor(accesses));
        stream.source = std::make_unique<RecordingTee>(
            std::move(stream.source), *stream.recording);
    }
    return stream;
}

StreamUse
CellPairState::closeStream(Stream &stream) const
{
    if (stream.use != StreamUse::Recorded)
        return stream.use;
    stream.source.reset(); // the tee borrows the recording
    stream.recording->finish();
    const std::lock_guard<std::mutex> lock(record_.m);
    if (stream.recording->abandoned()) {
        record_.state = RecordingState::Abandoned;
        return StreamUse::Direct;
    }
    record_.recording = std::move(stream.recording);
    record_.state = RecordingState::Kept;
    return StreamUse::Recorded;
}

std::size_t
CellPairState::recordingBytes() const
{
    const std::lock_guard<std::mutex> lock(record_.m);
    return record_.recording ? record_.recording->bytes() : 0;
}

ExperimentContext::ExperimentContext(SimOptions options)
    : options_(options)
{
    if (options_.cache_pairs == 0)
        options_.cache_pairs = 1;
}

ExperimentContext::~ExperimentContext() = default;

void
ExperimentContext::clearCache()
{
    cache_.clear();
}

void
ExperimentContext::sizeCacheForPairs(std::size_t distinct_pairs)
{
    std::size_t desired = std::max<std::size_t>(
        {std::size_t{1}, distinct_pairs, options_.cache_pairs});
    if (options_.cache_pairs_from_env) {
        // The user budgeted memory explicitly: never exceed it.
        desired = std::max<std::size_t>(
            1, std::min<std::size_t>(distinct_pairs,
                                     options_.cache_pairs));
    }
    options_.cache_pairs = desired;
    while (cache_.size() > options_.cache_pairs)
        cache_.pop_front();
}

const CellPairState &
ExperimentContext::pairState(const std::string &workload,
                             ScenarioKind scenario)
{
    ++counters_.lookups;
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
        if ((*it)->workload() == workload && (*it)->scenario() == scenario) {
            ++counters_.hits;
            // LRU: move the hit to the back (most recently used) so
            // revisited pairs survive sweeps over other pairs.
            if (std::next(it) != cache_.end()) {
                auto entry = std::move(*it);
                cache_.erase(it);
                cache_.push_back(std::move(entry));
            }
            return *cache_.back();
        }
    }

    cache_.push_back(
        std::make_unique<CellPairState>(options_, workload, scenario));
    // Page tables are tens of MB for big footprints: bound the number of
    // pairs kept alive (ANCHORTLB_CACHE_PAIRS), evicting the LRU front.
    while (cache_.size() > options_.cache_pairs)
        cache_.pop_front();
    return *cache_.back();
}

const MemoryMap &
ExperimentContext::mapping(const std::string &workload,
                           ScenarioKind scenario)
{
    return pairState(workload, scenario).map();
}

std::uint64_t
ExperimentContext::dynamicDistance(const std::string &workload,
                                   ScenarioKind scenario)
{
    return pairState(workload, scenario).dynamicDistance();
}

void
ExperimentContext::countStream(StreamUse use, const CellPairState &pair)
{
    switch (use) {
      case StreamUse::Direct:
        ++counters_.stream_direct;
        break;
      case StreamUse::Recorded:
        ++counters_.stream_recorded;
        counters_.recording_bytes += pair.recordingBytes();
        break;
      case StreamUse::Replayed:
        ++counters_.stream_replayed;
        break;
    }
}

SimResult
ExperimentContext::runScheme(const CellPairState &pair, Scheme scheme,
                             std::uint64_t anchor_distance)
{
    const bool plain = scheme == Scheme::Base || scheme == Scheme::Cluster;
    StreamUse use = StreamUse::Direct;
    SimResult res = runSchemeCell(
        options_, pair, plain ? pair.plainTable() : pair.thpTable(),
        scheme, anchor_distance, &use);
    countStream(use, pair);
    return res;
}

SimResult
ExperimentContext::runIdealSweep(const CellPairState &pair)
{
    // Oracle: the first candidate distance with the fewest misses
    // (paper's "static ideal"). The reduction walks candidates in
    // canonical order over finished passes only, so neither the walk
    // bounds nor the chunking can change the pick.
    const std::vector<std::uint64_t> distances = candidateDistances();
    const std::vector<RankChunk> chunks =
        idealRankChunks(options_.threads, distances.size());
    std::vector<AnchorPass> passes;
    if (chunks.size() == 1) {
        passes = runAnchorPasses(options_, pair, Scheme::AnchorIdeal,
                                 distances);
    } else {
        passes.resize(distances.size());
        ThreadPool pool(static_cast<unsigned>(chunks.size()));
        for (const RankChunk &chunk : chunks) {
            pool.submit([this, &pair, &distances, &passes, chunk] {
                std::vector<AnchorPass> part = runAnchorPasses(
                    options_, pair, Scheme::AnchorIdeal,
                    std::span(distances).subspan(chunk.lo,
                                                 chunk.hi - chunk.lo));
                std::move(part.begin(), part.end(),
                          passes.begin() + chunk.lo);
            });
        }
        pool.wait();
    }
    for (const AnchorPass &pass : passes) {
        countStream(pass.use, pair);
        if (pass.skipped > 0) {
            ++counters_.ideal_passes_stopped;
            counters_.ideal_accesses_skipped += pass.skipped;
        }
    }
    return *std::move(passes[firstMinimumRun(passes)].result);
}

std::uint64_t
ExperimentContext::traceHashFor(const std::string &workload)
{
    const auto it = trace_hashes_.find(workload);
    if (it != trace_hashes_.end())
        return it->second;
    const std::uint64_t digest = traceContentHash(workload);
    trace_hashes_.emplace(workload, digest);
    return digest;
}

CellKey
ExperimentContext::cellKey(const std::string &workload,
                           ScenarioKind scenario, Scheme scheme,
                           std::optional<std::uint64_t> distance_override)
{
    return cellKeyFor(options_,
                      CellSpec{workload, scenario, scheme,
                               distance_override},
                      traceHashFor(workload));
}

SimResult
ExperimentContext::run(const std::string &workload, ScenarioKind scenario,
                       Scheme scheme,
                       std::optional<std::uint64_t> distance_override)
{
    // An attached result cache is consulted before any expensive state
    // is built: a hit skips mapping/page-table construction entirely.
    CellKey key;
    if (result_cache_) {
        key = cellKey(workload, scenario, scheme, distance_override);
        ++counters_.result_lookups;
        if (std::optional<SimResult> cached = result_cache_->lookup(key)) {
            ++counters_.result_hits;
            return *std::move(cached);
        }
    }

    const CellPairState &pair = pairState(workload, scenario);

    SimResult result;
    if (scheme == Scheme::AnchorIdeal) {
        result = runIdealSweep(pair);
    } else {
        std::uint64_t distance = 0;
        if (scheme == Scheme::Anchor) {
            distance = distance_override ? *distance_override
                                         : pair.dynamicDistance();
        }
        result = runScheme(pair, scheme, distance);
    }

    if (result_cache_)
        result_cache_->store(key, result);
    return result;
}

double
relativeMisses(std::uint64_t scheme_misses, std::uint64_t base_misses)
{
    if (base_misses == 0)
        return 1.0; // nothing to reduce: report parity
    return static_cast<double>(scheme_misses) /
           static_cast<double>(base_misses);
}

} // namespace atlb
