/**
 * @file
 * Experiment context: builds and caches mappings, page tables and
 * workload traces, and runs (workload x scenario x scheme) cells.
 *
 * This is the top-level API the bench binaries and examples use; one
 * cell corresponds to one bar of a paper figure. Page tables for big
 * footprints are large, so the context keeps a small LRU cache of
 * per-(workload, scenario) state (capacity cache_pairs, revisited
 * pairs move to the back) — iterate workloads in the outer loop for
 * locality. Each cached pair also keeps its access stream as a
 * run-length recording after the first pass, so the pair's other
 * scheme and Static Ideal passes replay it instead of regenerating it
 * (CellPairState::openStream, DESIGN.md §7.4).
 */

#ifndef ANCHORTLB_SIM_EXPERIMENT_HH
#define ANCHORTLB_SIM_EXPERIMENT_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "mmu/mmu_config.hh"
#include "os/memory_map.hh"
#include "os/page_table.hh"
#include "os/scenario.hh"
#include "sim/scheme.hh"
#include "sim/simulator.hh"
#include "trace/run_recording.hh"
#include "trace/workload.hh"

namespace atlb
{

/** Global knobs for an experiment campaign. */
struct SimOptions
{
    /** Accesses simulated per cell. */
    std::uint64_t accesses = 2'000'000;
    /** Base RNG seed (mapping and trace seeds derive from it). */
    std::uint64_t seed = 42;
    /**
     * Footprint scale factor (1.0 = paper-sized working sets). Smaller
     * values shrink memory and runtime for quick runs; relative scheme
     * behaviour is preserved as long as footprints stay well above the
     * L2 TLB reach.
     */
    double footprint_scale = 1.0;
    /**
     * Worker threads for the sweep engine and the AnchorIdeal distance
     * sweep. 1 (the default here) is the serial path; fromEnv() sets
     * ANCHORTLB_THREADS, falling back to the hardware concurrency.
     * Results are identical for every thread count — all randomness is
     * derived from per-cell seeds.
     */
    unsigned threads = 1;
    /**
     * Capacity of ExperimentContext's per-(workload, scenario) state
     * cache, in pairs (LRU eviction). Page tables dominate the cost:
     * budget roughly tens of MB per cached pair at full footprints.
     * Sweep drivers that know their run shape call
     * ExperimentContext::sizeCacheForPairs() to fit this to the number
     * of distinct pairs; an explicit ANCHORTLB_CACHE_PAIRS clamps it.
     */
    std::size_t cache_pairs = 2;
    /** True when ANCHORTLB_CACHE_PAIRS was set explicitly (clamp). */
    bool cache_pairs_from_env = false;
    /**
     * Within-cell shards (ANCHORTLB_SHARDS). 1 = the exact serial
     * simulation path, byte-identical to pre-sharding builds. K > 1
     * splits each cell's access stream into K deterministic slices
     * simulated concurrently on independent TLB/MMU instances and
     * merged via SimResult::merge — an *approximation* whose miss rates
     * stay within shardMissRateEpsilon of serial (sharded_runner.hh).
     */
    unsigned shards = 1;
    /**
     * Warmup accesses each shard k > 0 replays from the tail of the
     * preceding shard's slice before its measured run, rebuilding TLB
     * warmth the serial walk would have at that point
     * (ANCHORTLB_SHARD_WARMUP). Clamped to the shard's start offset.
     */
    std::uint64_t shard_warmup = 32'768;
    /**
     * Replay-loop flavour. Batch (the default) drives each scheme's
     * devirtualized translateBatch kernel; PerAccess is the
     * counter-identical reference loop, selectable with
     * ANCHORTLB_PER_ACCESS for differential runs (the golden harness
     * pins both spellings to the same bytes).
     */
    TranslateMode translate_mode = TranslateMode::Batch;
    /** Hardware parameters (paper Table 3 defaults). */
    MmuConfig mmu;

    /** Read accesses/scale/threads overrides from ANCHORTLB_* env vars. */
    static SimOptions fromEnv();
};

/**
 * Footprint-scaled catalog spec for @p workload (fatal if unknown).
 *
 * A name of the form "trace:<path>" instead names a trace-driven
 * workload: @p path must be a binary trace file (ATLBTRC1/2) whose
 * vaddrs all fall inside the simulated region starting at traceBaseVa()
 * (import with --rebase to guarantee this). Its footprint is taken from
 * the trace's vaddr bounds — footprint_scale deliberately does not
 * apply, since the addresses are fixed by the capture.
 */
WorkloadSpec scaledWorkloadSpec(const SimOptions &options,
                                const std::string &workload);

/**
 * Accesses one cell of @p spec actually simulates: options.accesses,
 * clamped to the trace length for trace-driven workloads (a capture
 * cannot be extended).
 */
std::uint64_t cellAccesses(const SimOptions &options,
                           const WorkloadSpec &spec);

/**
 * The access stream of one cell: a PatternTrace for synthetic specs, a
 * clamped file reader for trace-driven ones. Shared by the serial cell
 * body and the sharded runner (which passes each shard's slice end as
 * @p num_accesses), which is what keeps the two modes replaying the
 * same stream.
 */
std::unique_ptr<TraceSource> makeCellTrace(const SimOptions &options,
                                           const WorkloadSpec &spec,
                                           std::uint64_t num_accesses);

/** Scenario-construction parameters for @p spec under @p options. */
ScenarioParams scenarioParamsFor(const SimOptions &options,
                                 const WorkloadSpec &spec);

/** VA where every simulated workload's footprint is mapped. */
constexpr VirtAddr traceBaseVa()
{
    return vaOf(Vpn{0x7f0000000ULL});
}

/**
 * Seed of @p spec's access stream under @p options: every run of a cell
 * (serial, parallel sweep, or any shard of it) derives its trace from
 * this one value, which is what makes the execution modes comparable.
 */
std::uint64_t traceSeedFor(const SimOptions &options,
                           const WorkloadSpec &spec);

/**
 * Construct @p scheme's MMU over @p table. @p map is only read by RMM
 * (its range table); @p anchor_distance only by the anchor schemes.
 * Shared by the serial cell body and the sharded runner, which builds
 * one MMU per shard.
 */
std::unique_ptr<Mmu> buildSchemeMmu(const MmuConfig &config,
                                    const PageTable &table,
                                    const MemoryMap &map, Scheme scheme,
                                    std::uint64_t anchor_distance);

/**
 * Run one fully specified cell: build @p scheme's MMU over the prebuilt
 * @p table and stream the workload's trace through it. @p table must
 * match the scheme's table flavour (plain 4KB for Base/Cluster, THP for
 * THP/Cluster-2MB/RMM and the anchor schemes, which read it at
 * @p anchor_distance). The stream comes straight from makeCellTrace; the
 * CellPairState overload below is the same body with the pair's
 * recorded stream, and is what every executor runs.
 */
SimResult runSchemeCell(const SimOptions &options, const WorkloadSpec &spec,
                        ScenarioKind scenario, const MemoryMap &map,
                        const PageTable &table, Scheme scheme,
                        std::uint64_t anchor_distance);

/** How one simulation pass of a pair obtained its access stream. */
enum class StreamUse : std::uint8_t
{
    Direct,   //!< generated or decoded afresh; nothing kept
    Recorded, //!< generated afresh and kept as the pair's recording
    Replayed, //!< replayed from the pair's recording
};

/**
 * Expensive state for one (workload, scenario) pair, safe to share
 * across threads: the footprint-scaled spec, the scenario mapping and
 * its dynamically selected anchor distance are built eagerly by the
 * constructor; the plain/THP page-table flavours are built lazily on
 * first use (std::call_once, so concurrent readers share one build).
 * When the mapping has no promotable 2MB block the two flavours are
 * entry-for-entry equal, and thpTable() returns plainTable() itself.
 * The anchor schemes read thpTable() too: its anchor contiguity is
 * stored once at build and clipped to the distance at read
 * (DESIGN.md §7.5), so no table is written after its build and every
 * cell and thread of the pair shares the same two tables.
 *
 * The pair also owns its access stream's run-length recording: the
 * pair's first pass tees its source into one, and every later pass
 * replays it (openStream/closeStream). Replays are byte-identical to
 * the direct stream in everything the simulator reads.
 *
 * Construction reads exactly options.seed and options.footprint_scale
 * (via scaledWorkloadSpec / scenarioParamsFor); callers that cache pair
 * state across option sets key on those two fields plus the pair.
 *
 * This one type is the pair state of every executor: the parallel
 * sweep engine, the serve-side cell scheduler and ExperimentContext's
 * serial cache all hold it directly.
 */
class CellPairState
{
  public:
    CellPairState(const SimOptions &options, std::string workload,
                  ScenarioKind scenario);

    const std::string &workload() const { return workload_; }
    ScenarioKind scenario() const { return scenario_; }
    const WorkloadSpec &spec() const { return spec_; }
    const MemoryMap &map() const { return map_; }

    /** Distance Algorithm 1 selects for this pair's mapping. */
    std::uint64_t dynamicDistance() const { return dynamic_distance_; }

    /** All-4KB table (Base / Cluster); built on first call. */
    const PageTable &plainTable() const;

    /**
     * THP table (THP / Cluster-2MB / RMM); built on first call. The
     * same object as plainTable() when hasPromotableHugeBlock(map()) is
     * false, since the THP layout then maps no 2MB leaf.
     */
    const PageTable &thpTable() const;

    /** One pass's access stream; see openStream(). */
    struct Stream
    {
        /** Recorded passes only: the recording the tee fills. */
        std::unique_ptr<RunRecording> recording;
        /**
         * Replayed passes only: the pair's published recording, which
         * batch-mode passes consume run by run (Mmu::translateRuns).
         * source then replays it access by access, the reference path.
         */
        std::shared_ptr<const RunRecording> replay;
        std::unique_ptr<TraceSource> source;
        StreamUse use = StreamUse::Direct;
    };

    /**
     * The access stream of one pass under @p options (the stream
     * makeCellTrace would open for this pair). A replay of the pair's
     * recording when one of the same trace seed and length is
     * published; otherwise the direct source, teed into a new recording
     * when no pass of the pair has claimed one yet. A pass that starts
     * while another is still recording streams directly, so thread
     * interleaving never changes a result. Thread-safe.
     */
    Stream openStream(const SimOptions &options) const;

    /**
     * End the pass of @p stream after draining its source. A recorded
     * stream's recording is published when it stayed within budget
     * (RunRecording::budgetFor) and abandoned otherwise. Returns how
     * the pass got its stream: Recorded, Replayed, or Direct (which
     * includes an abandoned recording). Thread-safe.
     */
    StreamUse closeStream(Stream &stream) const;

    /** Bytes of the published recording; 0 when none is published. */
    std::size_t recordingBytes() const;

  private:
    enum class RecordingState : std::uint8_t
    {
        None,      //!< no pass has claimed the recording yet
        Recording, //!< a pass is teeing its stream
        Kept,      //!< published; later passes replay it
        Abandoned, //!< over budget; every pass streams directly
    };

    /** The pair's stream recording and its state, under m. */
    struct StreamRecord
    {
        std::mutex m;
        RecordingState state = RecordingState::None;
        /** Trace seed and length of the recorded stream. */
        std::uint64_t trace_seed = 0;
        std::uint64_t accesses = 0;
        std::shared_ptr<const RunRecording> recording;
    };

    std::string workload_;
    ScenarioKind scenario_ = ScenarioKind::Demand;
    WorkloadSpec spec_;
    MemoryMap map_;
    std::uint64_t dynamic_distance_ = 0;
    /** The THP layout maps some 2MB leaf (else thpTable is plain). */
    bool thp_differs_ = false;
    mutable std::once_flag plain_once_;
    mutable std::optional<PageTable> plain_table_;
    mutable std::once_flag thp_once_;
    mutable std::optional<PageTable> thp_table_;
    mutable StreamRecord record_;
};

/**
 * runSchemeCell for one pass of @p pair: the same cell, with its access
 * stream from pair.openStream() — recorded by the pair's first pass,
 * replayed by later ones (run by run in batch mode) — so results are
 * byte-identical to the overload above. Sharded runs (shards > 1)
 * stream directly. @p use, when non-null, receives how the pass got its
 * stream. This is the cell body of ExperimentContext, the parallel
 * sweep engine and the serve scheduler.
 *
 * @p walk_bound, when set, lets the pass stop early: it stops at the
 * next block boundary once its page_walks exceed the bound (strictly,
 * so a pass that ties the bound runs to the end), and the result then
 * covers only the accesses simulated. Such a pass can no longer be a
 * Static Ideal minimum (DESIGN.md §7.6). A pass that records the
 * pair's stream, and a sharded pass, ignore the bound and always run
 * to the end.
 */
SimResult runSchemeCell(const SimOptions &options, const CellPairState &pair,
                        const PageTable &table, Scheme scheme,
                        std::uint64_t anchor_distance,
                        StreamUse *use = nullptr,
                        std::optional<std::uint64_t> walk_bound = {});

/** One candidate pass of runAnchorPasses. */
struct AnchorPass
{
    /**
     * The pass's result; empty when its page walks ended above the
     * call's walk bound (it was stopped early, or exceeded the bound in
     * its last block), so it cannot be the first minimum.
     */
    std::optional<SimResult> result;
    StreamUse use = StreamUse::Direct;
    /** Accesses the bound left unsimulated; 0 when the pass finished. */
    std::uint64_t skipped = 0;
};

/**
 * The only Static Ideal loop, and the anchor-pass body of every
 * executor (DESIGN.md §7.5, §7.6): run one @p scheme pass over
 * pair.thpTable() for each of @p distances. The table is only read, so
 * concurrent calls may share @p pair.
 *
 * The passes run under an exact walk bound: the fewest misses of the
 * passes this call has finished so far. A pass whose walks exceed it
 * stops early and gets no result; a pass that ties it runs to the end.
 * Since page_walks only grows during a pass, the first minimum in
 * canonical order never exceeds the bound, so firstMinimumRun over the
 * returned passes picks exactly the exhaustive sweep's winner. To set
 * a tight bound early, the call visits @p distances starting at the
 * pair's dynamic distance, then outward by rank distance from it, the
 * lower rank first on ties; @p distances must be ascending rungs of
 * candidateDistances(). Returns one AnchorPass per distance, in
 * @p distances order.
 */
std::vector<AnchorPass>
runAnchorPasses(const SimOptions &options, const CellPairState &pair,
                Scheme scheme, std::span<const std::uint64_t> distances);

/** Half-open range [lo, hi) of Static Ideal candidate ranks. */
struct RankChunk
{
    std::size_t lo = 0;
    std::size_t hi = 0;
};

/**
 * Split candidate ranks [0, @p candidates) into min(@p threads,
 * @p candidates) contiguous chunks of near-equal size, in rank order
 * (at least one chunk). Each chunk is one runAnchorPasses call, with
 * its own walk bound.
 */
std::vector<RankChunk> idealRankChunks(unsigned threads,
                                       std::size_t candidates);

/**
 * Index of the first pass with the fewest misses among the finished
 * passes of @p passes (in canonical candidate order; at least one must
 * have a result): the Static Ideal pick, with ties going to the lowest
 * rank in every executor. Passes without a result are skipped; they
 * ended above a bound some finished pass set, so they can never be the
 * minimum, and the pick is the same for any visit order or chunking.
 */
std::size_t firstMinimumRun(const std::vector<AnchorPass> &passes);

/**
 * Content address of one experiment cell: the canonical FNV-1a digest
 * of every input that shapes its SimResult (cellKeyFor). Equal keys
 * mean byte-identical results; a strong type so a key can never be
 * confused with a raw counter or address.
 */
class CellKey
{
  public:
    constexpr CellKey() = default;
    explicit constexpr CellKey(std::uint64_t digest) : digest_(digest) {}

    constexpr std::uint64_t raw() const { return digest_; }

    friend constexpr bool operator==(const CellKey &, const CellKey &) =
        default;
    friend constexpr auto operator<=>(const CellKey &, const CellKey &) =
        default;

  private:
    std::uint64_t digest_ = 0;
};

/** The coordinates of one cell, as ExperimentContext::run takes them. */
struct CellSpec
{
    std::string workload;
    ScenarioKind scenario = ScenarioKind::Demand;
    Scheme scheme = Scheme::Base;
    /** Anchor distance override; only meaningful for Scheme::Anchor. */
    std::optional<std::uint64_t> distance_override;
};

/**
 * Content hash of a trace-driven workload's trace file; 0 for synthetic
 * workloads (their streams are fully determined by name + options).
 * Fatal when the named trace file cannot be read — a cell key computed
 * from a missing input would silently alias.
 */
std::uint64_t traceContentHash(const std::string &workload);

/**
 * Canonical content address of the cell (@p options, @p spec): a fixed
 * field sequence folded through FNV-1a (see DESIGN.md section 13).
 * Hashes exactly the inputs that shape the result — workload, scenario,
 * scheme, the effective distance override, the trace content hash for
 * trace-driven workloads, the accesses/seed/footprint_scale/shards/
 * shard_warmup knobs, and every MmuConfig field. Deliberately excluded:
 * threads, cache_pairs and translate_mode, which the test suite pins to
 * byte-identical results. A stray distance_override on a non-Anchor
 * scheme is canonicalized away (run() ignores it there).
 */
CellKey cellKeyFor(const SimOptions &options, const CellSpec &spec,
                   std::uint64_t trace_content_hash = 0);

/**
 * A persistent (or otherwise external) cache of finished cells, keyed
 * by content address. ExperimentContext consults one when attached via
 * setResultCache(); serve/result_store.hh implements it on disk.
 */
class ResultCache
{
  public:
    virtual ~ResultCache() = default;

    /** The stored result for @p key, if any. */
    virtual std::optional<SimResult> lookup(CellKey key) = 0;

    /** Record @p result as the cell @p key's value. */
    virtual void store(CellKey key, const SimResult &result) = 0;
};

/** Runs experiment cells with caching of expensive per-pair state. */
class ExperimentContext
{
  public:
    explicit ExperimentContext(SimOptions options = SimOptions::fromEnv());
    ~ExperimentContext();

    ExperimentContext(const ExperimentContext &) = delete;
    ExperimentContext &operator=(const ExperimentContext &) = delete;

    /**
     * Run one cell. For Scheme::Anchor the distance comes from the
     * dynamic selection algorithm unless @p distance_override is given;
     * for Scheme::AnchorIdeal every candidate distance is tried and the
     * best (fewest misses) run is returned.
     */
    SimResult run(const std::string &workload, ScenarioKind scenario,
                  Scheme scheme,
                  std::optional<std::uint64_t> distance_override = {});

    /**
     * Attach (or detach, with nullptr) an external result cache. Borrowed:
     * @p cache must outlive the context or the next setResultCache().
     * While attached, run() answers from the cache when it holds the
     * cell's key and stores every freshly computed result back.
     */
    void setResultCache(ResultCache *cache) { result_cache_ = cache; }

    /**
     * The content address run() would use for this cell under the
     * context's options. Trace content hashes are memoized per workload
     * name, so sweeps over trace-driven workloads hash each file once.
     */
    CellKey cellKey(const std::string &workload, ScenarioKind scenario,
                    Scheme scheme,
                    std::optional<std::uint64_t> distance_override = {});

    /** Distance Algorithm 1 selects for this workload/scenario pair. */
    std::uint64_t dynamicDistance(const std::string &workload,
                                  ScenarioKind scenario);

    /** The (cached) mapping for a pair, for inspection. */
    const MemoryMap &mapping(const std::string &workload,
                             ScenarioKind scenario);

    const SimOptions &options() const { return options_; }

    /** Pair-cache effectiveness counters for the sweep summary. */
    struct CacheCounters
    {
        std::uint64_t lookups = 0;
        std::uint64_t hits = 0;
        /** Attached-ResultCache consultations by run(). */
        std::uint64_t result_lookups = 0;
        /** ... of which answered without simulating. */
        std::uint64_t result_hits = 0;
        /** Simulation passes by how they got their access stream. */
        std::uint64_t stream_recorded = 0;
        std::uint64_t stream_replayed = 0;
        std::uint64_t stream_direct = 0;
        /** Bytes of the recordings the recorded passes kept. */
        std::uint64_t recording_bytes = 0;
        /** Static Ideal passes the walk bound stopped early ... */
        std::uint64_t ideal_passes_stopped = 0;
        /** ... and the accesses they left unsimulated. */
        std::uint64_t ideal_accesses_skipped = 0;

        double hitRate() const
        {
            return lookups ? static_cast<double>(hits) /
                                 static_cast<double>(lookups)
                           : 0.0;
        }
    };

    const CacheCounters &cacheCounters() const { return counters_; }

    /** Current pair-cache capacity (after any run-shape sizing). */
    std::size_t cacheCapacity() const { return options_.cache_pairs; }

    /**
     * Fit the pair cache to a sweep that touches @p distinct_pairs
     * distinct (workload, scenario) pairs, so revisiting schemes of a
     * pair always hits. An explicit ANCHORTLB_CACHE_PAIRS acts as an
     * upper clamp (the user is budgeting memory); without it the
     * capacity grows to the run shape and never shrinks below the
     * built-in default.
     */
    void sizeCacheForPairs(std::size_t distinct_pairs);

    /** Drop all cached state (frees page-table memory). */
    void clearCache();

  private:
    SimOptions options_;
    /** LRU order: front = coldest, back = most recently used. */
    std::deque<std::unique_ptr<CellPairState>> cache_;
    CacheCounters counters_;
    ResultCache *result_cache_ = nullptr; //!< borrowed, may be null
    /** Per-workload trace content hashes (files hashed once). */
    std::unordered_map<std::string, std::uint64_t> trace_hashes_;

    std::uint64_t traceHashFor(const std::string &workload);
    const CellPairState &pairState(const std::string &workload,
                                   ScenarioKind scenario);
    SimResult runScheme(const CellPairState &pair, Scheme scheme,
                        std::uint64_t anchor_distance);
    void countStream(StreamUse use, const CellPairState &pair);
    /**
     * The Static Ideal cell of @p pair: every candidate distance
     * through runAnchorPasses, reduced by firstMinimumRun. With
     * threads > 1 the candidates split into idealRankChunks across a
     * pool, each chunk under its own walk bound. Counts every pass's
     * stream use and the passes the bound stopped.
     */
    SimResult runIdealSweep(const CellPairState &pair);
};

/**
 * Geometric-free mean helper used by the figure benches: the paper
 * reports arithmetic means of relative misses; relative(a, base) guards
 * the base==0 corner (no misses anywhere -> ratio 1).
 */
double relativeMisses(std::uint64_t scheme_misses,
                      std::uint64_t base_misses);

} // namespace atlb

#endif // ANCHORTLB_SIM_EXPERIMENT_HH
