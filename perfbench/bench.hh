/**
 * @file
 * Shared pieces of the end-to-end benchmark: the run arguments, the
 * outcome every workload reports, and the traced replica of one row.
 */

#ifndef ANCHORTLB_PERFBENCH_BENCH_HH
#define ANCHORTLB_PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/parallel_runner.hh"
#include "spans.hh"

namespace perfbench
{

/** Command-line arguments of one run. */
struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Working directory for captures, stores and trace files. */
    std::string out_dir = ".bench_out";
    /** Pinned row digests per workload, checked when seed == pin_seed. */
    std::uint64_t pin_seed = 0;
    std::map<std::string, std::uint64_t> pinned_digests;
};

/** Set-ups per run; setup_s is their median. */
constexpr int setupRepeats = 7;

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload run reports: its metrics and its output checks. */
class Outcome
{
  public:
    /** Count one attempted operation; @p ok false marks it failed. */
    void op(bool ok, const std::string &what);

    /** A check not tied to one operation; failing it fails the run. */
    void check(bool ok, const std::string &what);

    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Print an informational line (stdout, before the JSON line). */
    void note(const std::string &line);

    bool correct() const { return failed_ == 0; }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<Metric> &metrics() const { return metrics_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<Metric> metrics_;
};

/** Wall seconds since @p start. */
double secondsSince(SpanRecorder::Clock::time_point start);

/**
 * "what: n=.. p50=.. unit" plus the highest tail percentile with ten
 * samples beyond it, or a note that none has.
 */
std::string describeTiming(const std::string &what,
                           const std::vector<double> &values,
                           const char *unit);

/** Peak resident set of this process so far, in MB. */
double peakRssMb();

/** The cells of one full row of @p workload x @p scenario (7 schemes). */
std::vector<atlb::CellJob> rowJobs(const std::string &workload,
                                   atlb::ScenarioKind scenario);

/** Lower-case metric-name form of a scheme ("cluster-2mb", ...). */
std::string schemeSlug(atlb::Scheme scheme);

/**
 * Output checks every row result passes: per-cell MmuStats conservation
 * (l1 + l2 regular + coalesced + walks == accesses == @p accesses) and
 * Static Ideal walks <= Dynamic walks. Records one op per cell.
 */
void checkRow(Outcome &out, const std::vector<atlb::SimResult> &row,
              std::uint64_t accesses, const std::string &label);

/** FNV-1a digest of the row's encoded results, in scheme order. */
std::uint64_t rowDigest(const std::vector<atlb::SimResult> &row);

/**
 * Timings and counts of traced rows, accumulated over every row
 * replayed into one recorder (per-row means come from dividing by
 * rows).
 */
struct ReplicaTotals
{
    std::uint64_t rows = 0;
    std::uint64_t pair_builds = 0;
    std::uint64_t table_builds = 0;
    std::uint64_t anchor_tables = 0;
    std::uint64_t passes = 0;
    std::uint64_t trace_accesses = 0;  //!< from synthetic generation
    std::uint64_t ingest_accesses = 0; //!< from capture decode
    atlb::MmuStats mmu;                //!< every pass, summed
    atlb::BatchStats batch;            //!< every pass, summed
    std::map<atlb::Scheme, std::uint64_t> scheme_accesses;
    /** Span indices of each replayed row and of its cells. */
    std::vector<std::uint32_t> row_spans;
    std::vector<std::map<atlb::Scheme, std::uint32_t>> cell_spans;
};

/**
 * How a row's executor provides anchor tables: ExperimentContext (the
 * serial path) re-sweeps one table in place per distance; runCellJob
 * (ParallelRunner and the serve scheduler) builds a fresh table per
 * pass with buildAnchorPageTable.
 */
enum class AnchorTables
{
    SweepInPlace,
    BuildPerPass,
};

/**
 * Replay one row through the same public calls as @p anchors' executor
 * (pair build, table, makeCellTrace, buildSchemeMmu, then
 * fill/translateBatch per 1024-access batch), timing each call into
 * @p rec. Returns each scheme's MmuStats in allSchemes order (Static
 * Ideal: the first minimum-walk candidate, as the simulator picks it).
 */
std::vector<atlb::MmuStats> replayRow(const atlb::SimOptions &options,
                                      const std::string &workload,
                                      atlb::ScenarioKind scenario,
                                      AnchorTables anchors,
                                      SpanRecorder &rec,
                                      std::uint64_t request,
                                      ReplicaTotals &totals);

/** One untraced row and its wall time. */
struct TimedRow
{
    std::vector<atlb::SimResult> results;
    double seconds = 0.0;
};

/**
 * The row run untraced and serially through runCellJob on a fresh
 * CellPairState: the per-cell body ParallelRunner and the serve
 * scheduler execute, without their fan-out.
 */
TimedRow jobRow(const atlb::SimOptions &options, const std::string &workload,
                atlb::ScenarioKind scenario);

/** True when every counter of @p a and @p b is equal. */
bool sameStats(const atlb::MmuStats &a, const atlb::MmuStats &b);

/**
 * Emit the os/trace/ingest/mmu/sim per-layer metrics (per-row means
 * over the replayed rows) and check that each row's layer self times
 * add up to its wall time within 5%. @p untraced_row_s is the wall time
 * of the same rows run untraced, for sim.trace_overhead_frac.
 */
void emitReplicaMetrics(Outcome &out, const std::vector<Span> &spans,
                        const ReplicaTotals &totals,
                        double untraced_row_s);

/** Zero-valued metrics of every layer a workload does not exercise. */
void emitServeLayerZeros(Outcome &out);
void emitModelZeros(Outcome &out);

/** Write @p spans to @p path as Chrome trace-event JSON. */
void writeTraceFile(Outcome &out, const std::string &path,
                    const std::vector<Span> &spans);

Outcome runRowWorkload(const RunArgs &args);
Outcome runServeWorkload(const RunArgs &args);

} // namespace perfbench

#endif // ANCHORTLB_PERFBENCH_BENCH_HH
