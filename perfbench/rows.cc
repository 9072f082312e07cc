/**
 * @file
 * The two row workloads: one full 7-scheme row per iteration through
 * runCells, and their traced replica.
 *
 *  - row_mcf_medium: mcf x medium, synthetic accesses, serial
 *    (threads = 1 runs the ExperimentContext path).
 *  - row_gups_trace: gups x medium replayed from an ATLBTRC2 capture
 *    that set-up writes from the seed, through ParallelRunner with two
 *    threads (which fans the Static Ideal candidates out).
 */

#include <cinttypes>
#include <cstdio>

#include "bench.hh"
#include "ingest/trace_v2.hh"
#include "os/distance_selector.hh"
#include "sim/simulator.hh"

namespace perfbench
{

using atlb::ScenarioKind;
using atlb::SimOptions;
using atlb::SimResult;

namespace
{

struct RowSpec
{
    std::string workload; //!< catalog name or "trace:<capture>"
    std::string capture;  //!< set-up writes this capture when non-empty
    unsigned threads = 1;
    /** Rows the traced pass replays (and runs untraced to compare). */
    unsigned traced_rows = 1;
    /** Paper's relative misses of Dynamic, when EXPERIMENTS.md has it. */
    double paper_dynamic_rel = 0.0;
};

constexpr ScenarioKind rowScenario = ScenarioKind::MedContig;
constexpr std::uint64_t rowAccesses = 2'000'000;

RowSpec
rowSpec(const RunArgs &args)
{
    RowSpec spec;
    if (args.workload == "row_mcf_medium") {
        spec.workload = "mcf";
        spec.traced_rows = 3;
    } else {
        spec.capture = args.out_dir + "/gups.atlbtrc2";
        spec.workload = "trace:" + spec.capture;
        spec.threads = 2;
        spec.traced_rows = 2;
        spec.paper_dynamic_rel = 0.886;
    }
    return spec;
}

/** gups x medium accesses from the seed, written as ATLBTRC2. */
void
writeCapture(const SimOptions &options, const std::string &path)
{
    const atlb::WorkloadSpec spec = atlb::scaledWorkloadSpec(options, "gups");
    atlb::PatternTrace source(spec, atlb::traceBaseVa(), options.accesses,
                              atlb::traceSeedFor(options, spec));
    atlb::TraceV2Writer writer(path);
    atlb::MemAccess buffer[1024];
    while (const std::size_t n = source.fill(buffer, 1024)) {
        for (std::size_t i = 0; i < n; ++i)
            writer.append(buffer[i]);
    }
    writer.close();
}

/**
 * One set-up: write the capture (row_gups_trace) or run one warm-up
 * Base cell that faults in the allocator and code (row_mcf_medium).
 */
void
setUp(const RowSpec &spec, const SimOptions &options)
{
    if (!spec.capture.empty()) {
        writeCapture(options, spec.capture);
        return;
    }
    atlb::ExperimentContext ctx(options);
    ctx.run(spec.workload, rowScenario, atlb::Scheme::Base);
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
    return buf;
}

/** Record @p row's digest and check it against the pin for this seed. */
std::uint64_t
checkDigest(const RunArgs &args, const std::vector<SimResult> &row,
            Outcome &out)
{
    const std::uint64_t digest = rowDigest(row);
    out.note("row digest (seed " + std::to_string(args.seed) + "): " +
             hex(digest));
    const auto pin = args.pinned_digests.find(args.workload);
    if (args.seed == args.pin_seed && pin != args.pinned_digests.end())
        out.check(digest == pin->second, "row digest " + hex(digest) +
                                             " != pinned " +
                                             hex(pin->second));
    return digest;
}

/** The untraced pass: full rows for args.seconds; end-to-end metrics. */
void
measureRows(const RunArgs &args, const RowSpec &spec,
            const SimOptions &options, double setup_s, Outcome &out)
{
    const std::vector<atlb::CellJob> jobs = rowJobs(spec.workload, rowScenario);
    const std::uint64_t passes =
        std::size(atlb::allSchemes) - 1 + atlb::candidateDistances().size();
    std::vector<double> rows;
    std::uint64_t first_digest = 0;
    const auto start = SpanRecorder::Clock::now();
    while (rows.empty() || secondsSince(start) < args.seconds) {
        atlb::ExperimentContext ctx(options);
        const auto row_start = SpanRecorder::Clock::now();
        const std::vector<SimResult> row = atlb::runCells(ctx, jobs);
        rows.push_back(secondsSince(row_start));
        checkRow(out, row, rowAccesses,
                 args.workload + " row " + std::to_string(rows.size()));
        if (rows.size() == 1)
            first_digest = checkDigest(args, row, out);
        else
            out.check(rowDigest(row) == first_digest,
                      "row " + std::to_string(rows.size()) +
                          " differs from the first row");
    }
    const double window = secondsSince(start);
    double busy = 0.0;
    for (const double r : rows)
        busy += r;
    const auto accesses = static_cast<double>(rows.size() * passes * rowAccesses);

    out.note(describeTiming("rows", rows, "s"));
    out.metric("setup_s", setup_s, "s");
    out.metric("row_s", median(rows), "s");
    out.metric("sim_maccess_per_s", accesses / busy / 1e6, "M/s");
    out.metric("req_per_s", static_cast<double>(rows.size()) / window, "1/s");
    out.metric("req_p50_ms", median(rows) * 1e3, "ms");
    out.metric("peak_rss_mb", peakRssMb(), "MB");
}

/** The model.* counts of @p row, printed beside the paper's value. */
void
emitModel(const RowSpec &spec, const std::vector<SimResult> &row,
          Outcome &out)
{
    const auto base = static_cast<double>(row[0].misses());
    const double dynamic_rel = static_cast<double>(row[5].misses()) / base;
    const double ideal_rel = static_cast<double>(row[6].misses()) / base;
    out.metric("model.dynamic_rel_misses", dynamic_rel, "fraction");
    out.metric("model.ideal_rel_misses", ideal_rel, "fraction");
    out.metric("model.dynamic_distance",
               static_cast<double>(row[5].anchor_distance), "pages");
    out.metric("model.ideal_distance",
               static_cast<double>(row[6].anchor_distance), "pages");
    out.note("model: Dynamic " + std::to_string(100.0 * dynamic_rel) +
             "% / Static Ideal " + std::to_string(100.0 * ideal_rel) +
             "% relative misses; paper Dynamic " +
             (spec.paper_dynamic_rel > 0.0
                  ? std::to_string(100.0 * spec.paper_dynamic_rel) + "%"
                  : std::string("not recorded per workload")) +
             ". The substrate is synthetic and unvalidated against "
             "hardware, so no simulator-error figure goes with any "
             "speed-up.");
}

/**
 * The traced pass. The row through the workload's own executor is the
 * reference every replayed cell must match. The untraced baseline for
 * the overhead runs the replica's call sequence serially, one row
 * before each traced row, so slow drift of the host's speed hits both
 * sides alike.
 */
void
traceRows(const RunArgs &args, const RowSpec &spec, const SimOptions &options,
          Outcome &out)
{
    const std::vector<atlb::CellJob> jobs = rowJobs(spec.workload, rowScenario);
    const AnchorTables anchors = spec.threads == 1
                                     ? AnchorTables::SweepInPlace
                                     : AnchorTables::BuildPerPass;
    SimOptions serial = options;
    serial.threads = 1;
    atlb::ExperimentContext reference_ctx(options);
    const std::vector<SimResult> reference =
        atlb::runCells(reference_ctx, jobs);
    reference_ctx.clearCache();
    checkRow(out, reference, rowAccesses, args.workload + " untraced row");
    checkDigest(args, reference, out);

    SpanRecorder rec(SpanRecorder::Clock::now(), 1);
    ReplicaTotals totals;
    double untraced_s = 0.0;
    for (unsigned i = 0; i < spec.traced_rows; ++i) {
        if (anchors == AnchorTables::SweepInPlace) {
            atlb::ExperimentContext ctx(serial);
            const auto row_start = SpanRecorder::Clock::now();
            atlb::runCells(ctx, jobs);
            untraced_s += secondsSince(row_start);
        } else {
            untraced_s += jobRow(serial, spec.workload, rowScenario).seconds;
        }
        const std::vector<atlb::MmuStats> replica = replayRow(
            serial, spec.workload, rowScenario, anchors, rec, i, totals);
        for (std::size_t c = 0; c < replica.size(); ++c)
            out.op(sameStats(replica[c], reference[c].stats),
                   "traced replica of " + reference[c].scheme +
                       " differs from the untraced runCells result");
    }
    emitReplicaMetrics(out, rec.spans(), totals,
                       untraced_s / static_cast<double>(spec.traced_rows));
    emitServeLayerZeros(out);
    emitModel(spec, reference, out);

    // One row's events are enough to browse, and keep the file small.
    writeTraceFile(out, args.out_dir + "/" + args.workload + ".trace.json",
                   extractSubtree(rec.spans(), totals.row_spans.front()));
}

} // namespace

Outcome
runRowWorkload(const RunArgs &args)
{
    Outcome out;
    const RowSpec spec = rowSpec(args);
    SimOptions options;
    options.seed = args.seed;
    options.accesses = rowAccesses;
    options.threads = spec.threads;

    std::vector<double> setups;
    for (int i = 0; i < setupRepeats; ++i) {
        const auto start = SpanRecorder::Clock::now();
        setUp(spec, options);
        setups.push_back(secondsSince(start));
    }
    if (args.trace)
        traceRows(args, spec, options, out);
    else
        measureRows(args, spec, options, median(setups), out);
    return out;
}

} // namespace perfbench
