/**
 * @file
 * serve_mixed: an in-process SweepServer on a fresh store, driven by two
 * closed-loop client connections sending a seeded mix of warm reads and
 * cold row writes.
 *
 * The schedule is a script of slots shared by both clients: in every
 * group of ten slots one (at a seeded position) is a cold request, a
 * full 7-scheme row of the next (workload, scenario) pair in a fixed
 * cycle over the paper workloads x {demand, medium}, under a request
 * seed no earlier request used, so its mapping and trace are new. The
 * cycle is fixed rather than seeded because pair costs differ tenfold:
 * a seeded order would change which pairs a run of a few seconds
 * completes, and with it every figure. Every third cold slot carries
 * the same request seed on both clients, so the two clients send
 * identical cells at about the same time and the server's in-flight
 * dedup runs. The other slots are warm: a seeded query or submit of 1-7
 * cells the set-up pre-warmed into the store.
 */

#include <algorithm>
#include <atomic>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "bench.hh"
#include "common/rng.hh"
#include "os/distance_selector.hh"
#include "serve/client.hh"
#include "serve/result_store.hh"
#include "serve/server.hh"
#include "trace/workload.hh"

namespace perfbench
{

using atlb::CellReply;
using atlb::CellRequest;
using atlb::CellStatus;
using atlb::ScenarioKind;
using atlb::Scheme;
using atlb::SimResult;
using atlb::SweepRequest;
using atlb::SweepResponse;

namespace
{

/** Accesses of every served cell: short cells at full footprint. */
constexpr std::uint64_t serveAccesses = 30'000;
constexpr unsigned serveWorkers = 2;
constexpr unsigned serveClients = 2;
/**
 * One cold slot per this many: enough warm requests that a run of a few
 * seconds gives the hit latency a supported p99 (1000 samples).
 */
constexpr std::size_t slotsPerCold = 10;
/** Cold rows replayed by the traced pass for the os/trace/mmu split. */
constexpr std::size_t replicaSample = 28;

/** SplitMix64 finaliser: distinct request seeds from (seed, stream, i). */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream, std::uint64_t i)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
                      i * 0x94d049bb133111ebULL + 0x632be59bd9b4e5bULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

struct Pair
{
    std::string workload;
    ScenarioKind scenario = ScenarioKind::Demand;
};

/** Pre-warmed pairs: cheap to build, so set-up stays short. */
const std::vector<Pair> &
warmPairs()
{
    static const std::vector<Pair> pairs{
        {"mcf", ScenarioKind::Demand},
        {"canneal", ScenarioKind::MedContig},
        {"omnetpp", ScenarioKind::Demand},
        {"milc", ScenarioKind::MedContig},
    };
    return pairs;
}

/** A cold row: one pair under one request seed. */
struct ColdRow
{
    std::uint64_t seed = 0;
    Pair pair;

    auto tie() const
    {
        return std::tie(seed, pair.workload, pair.scenario);
    }
    bool operator<(const ColdRow &o) const { return tie() < o.tie(); }
};

/** One slot of the shared script. */
struct Slot
{
    bool cold = false;
    bool shared = false;  //!< cold only: same request seed on both clients
    std::size_t cold_index = 0;
    Pair pair;
};

/** The seeded slot script both clients follow. */
class Script
{
  public:
    explicit Script(std::uint64_t seed) : rng_(mixSeed(seed, 7, 0))
    {
        // Both scenarios of every workload, alternating, so the costly
        // pairs spread over the cycle.
        const std::vector<std::string> names = atlb::paperWorkloadNames();
        for (const bool medium_first : {false, true}) {
            for (std::size_t i = 0; i < names.size(); ++i) {
                const bool medium = (i % 2 == 1) != medium_first;
                pairs_.push_back({names[i], medium ? ScenarioKind::MedContig
                                                   : ScenarioKind::Demand});
            }
        }
    }

    /** Slot @p k (slots are generated in order, on demand). */
    const Slot &slot(std::size_t k)
    {
        const std::lock_guard<std::mutex> lock(m_);
        while (slots_.size() <= k)
            extend();
        return slots_[k];
    }

  private:
    void extend()
    {
        const std::size_t cold_at = rng_.nextBounded(slotsPerCold);
        for (std::size_t i = 0; i < slotsPerCold; ++i) {
            Slot s;
            if (i == cold_at) {
                s.cold = true;
                s.cold_index = cold_count_++;
                s.shared = s.cold_index % 3 == 0;
                s.pair = pairs_[s.cold_index % pairs_.size()];
            }
            slots_.push_back(s);
        }
    }

    std::mutex m_;
    atlb::Rng rng_;
    std::vector<Pair> pairs_;
    std::size_t cold_count_ = 0;
    std::deque<Slot> slots_;
};

/** Everything one client observed. */
struct ClientLog
{
    std::vector<double> hit_ms;
    std::vector<double> miss_ms;
    std::vector<double> warm_wire_us; //!< warm rtt, before lookup subtraction
    std::vector<std::size_t> warm_cells;
    std::uint64_t requests = 0;
    std::uint64_t simulated_accesses = 0;
    /** Cold replies, checked against direct runs after the window. */
    std::vector<std::pair<ColdRow, std::vector<SimResult>>> cold;
    /** Traced pass: every (key, result) seen, for the store timing. */
    std::vector<std::pair<std::uint64_t, SimResult>> keyed;
};

/** A running server on a fresh store, with its pre-warmed references. */
class ServeRig
{
  public:
    ServeRig(const std::string &dir, std::uint64_t seed, Outcome &out)
        : dir_(dir), seed_(seed)
    {
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
        atlb::ServeOptions options;
        options.socket_path = dir_ + "/serve.sock";
        options.store_path = dir_ + "/store.atlbres";
        options.base.threads = serveWorkers;
        options.base.accesses = serveAccesses;
        server_ = std::make_unique<atlb::SweepServer>(options);
        std::string error;
        if (!server_->start(&error))
            throw std::runtime_error("server start: " + error);
        runner_ = std::thread([this] { server_->run(); });

        // Pre-warm: one submit per warm pair; its replies become the
        // references every later warm reply must equal byte for byte.
        atlb::ServeClient client;
        if (!client.connect(socketPath(), &error)) {
            stop();
            throw std::runtime_error("connect: " + error);
        }
        for (const Pair &pair : warmPairs()) {
            SweepRequest req;
            req.seed = warmSeed();
            for (const Scheme scheme : atlb::allSchemes)
                req.cells.push_back({pair.workload, pair.scenario, scheme, {}});
            SweepResponse resp;
            const bool ok = client.roundTrip(req, resp, &error) && resp.ok &&
                            resp.cells.size() == req.cells.size();
            out.op(ok, "pre-warm of " + pair.workload + ": " + error +
                           resp.error);
            for (std::size_t i = 0; ok && i < resp.cells.size(); ++i) {
                warm_cells_.push_back(req.cells[i]);
                warm_results_.push_back(resp.cells[i].result);
            }
        }
    }

    ~ServeRig() { stop(); }

    ServeRig(const ServeRig &) = delete;
    ServeRig &operator=(const ServeRig &) = delete;

    void stop()
    {
        if (!runner_.joinable())
            return;
        server_->requestStop();
        runner_.join();
    }

    std::string socketPath() const { return dir_ + "/serve.sock"; }
    std::string storePath() const { return dir_ + "/store.atlbres"; }
    std::uint64_t warmSeed() const { return mixSeed(seed_, 5, 0); }
    atlb::SweepServer &server() { return *server_; }

    const std::vector<CellRequest> &warmCells() const { return warm_cells_; }
    const std::vector<SimResult> &warmResults() const
    {
        return warm_results_;
    }

  private:
    std::string dir_;
    std::uint64_t seed_;
    std::unique_ptr<atlb::SweepServer> server_;
    std::thread runner_;
    std::vector<CellRequest> warm_cells_;
    std::vector<SimResult> warm_results_;
};

/** Passes a cell costs: Static Ideal replays one per candidate. */
std::uint64_t
passesOf(Scheme scheme)
{
    return scheme == Scheme::AnchorIdeal ? atlb::candidateDistances().size()
                                         : 1;
}

/** One client's closed loop until @p deadline. */
void
clientLoop(unsigned id, Script &script, const ServeRig &rig,
           std::uint64_t seed, SpanRecorder::Clock::time_point deadline,
           SpanRecorder *rec, ClientLog &log, Outcome &out,
           std::mutex &out_m)
{
    const auto fail = [&](bool ok, const std::string &what) {
        const std::lock_guard<std::mutex> lock(out_m);
        out.op(ok, "client " + std::to_string(id) + ": " + what);
    };
    atlb::ServeClient client;
    std::string error;
    if (!client.connect(rig.socketPath(), &error)) {
        fail(false, "connect: " + error);
        return;
    }
    atlb::Rng rng(mixSeed(seed, 11, id));
    const std::vector<CellRequest> &warm = rig.warmCells();

    for (std::size_t k = 0; SpanRecorder::Clock::now() < deadline; ++k) {
        const Slot &slot = script.slot(k);
        SweepRequest req;
        std::vector<std::size_t> warm_index;
        ColdRow row;
        if (slot.cold) {
            row.pair = slot.pair;
            row.seed = mixSeed(seed, slot.shared ? 2 : 3 + id, slot.cold_index);
            req.seed = row.seed;
            for (const Scheme scheme : atlb::allSchemes)
                req.cells.push_back(
                    {row.pair.workload, row.pair.scenario, scheme, {}});
        } else {
            req.op = rng.nextBool(0.5) ? atlb::WireOp::Query
                                       : atlb::WireOp::Submit;
            req.seed = rig.warmSeed();
            std::vector<std::size_t> all(warm.size());
            for (std::size_t i = 0; i < all.size(); ++i)
                all[i] = i;
            std::shuffle(all.begin(), all.end(), rng);
            all.resize(1 + rng.nextBounded(7));
            for (const std::size_t i : all) {
                warm_index.push_back(i);
                req.cells.push_back(warm[i]);
            }
        }

        SweepResponse resp;
        const auto start = SpanRecorder::Clock::now();
        bool ok = false;
        if (rec) {
            const ScopedSpan span(*rec, "serve.round_trip",
                                  (std::uint64_t{id} << 32) | k);
            ok = client.roundTrip(req, resp, &error);
        } else {
            ok = client.roundTrip(req, resp, &error);
        }
        const double ms = secondsSince(start) * 1e3;
        ++log.requests;
        if (!ok || !resp.ok || resp.cells.size() != req.cells.size()) {
            fail(false, "request failed: " + error + resp.error);
            continue;
        }

        bool all_hits = true;
        bool cells_ok = true;
        for (std::size_t i = 0; i < resp.cells.size(); ++i) {
            const CellReply &cell = resp.cells[i];
            all_hits = all_hits && cell.status == CellStatus::Hit;
            cells_ok = cells_ok && cell.status != CellStatus::Error &&
                       cell.status != CellStatus::Miss;
            if (cell.status == CellStatus::Computed)
                log.simulated_accesses +=
                    cell.result.stats.accesses * passesOf(req.cells[i].scheme);
            if (rec)
                log.keyed.emplace_back(cell.key, cell.result);
        }
        if (!slot.cold) {
            // A warm reply must equal the pre-warm reply byte for byte.
            bool equal = all_hits;
            for (std::size_t i = 0; equal && i < resp.cells.size(); ++i)
                equal = atlb::encodeSimResult(resp.cells[i].result) ==
                        atlb::encodeSimResult(
                            rig.warmResults()[warm_index[i]]);
            fail(equal, "warm reply is not the stored result");
            log.warm_wire_us.push_back(ms * 1e3);
            log.warm_cells.push_back(req.cells.size());
        } else {
            fail(cells_ok, "cold row " + row.pair.workload + " has a bad cell");
            std::vector<SimResult> results;
            for (const CellReply &cell : resp.cells)
                results.push_back(cell.result);
            log.cold.emplace_back(row, std::move(results));
        }
        (all_hits ? log.hit_ms : log.miss_ms).push_back(ms);
    }
}

/** Counter @p name of a reply (0 when absent). */
std::uint64_t
counter(const SweepResponse &resp, const std::string &name)
{
    for (const auto &[key, value] : resp.counters) {
        if (key == name)
            return value;
    }
    return 0;
}

/**
 * The direct ExperimentContext rows of every distinct cold row, run on
 * @p threads checker threads.
 */
std::map<ColdRow, std::vector<SimResult>>
directRows(const std::set<ColdRow> &rows, unsigned threads)
{
    const std::vector<ColdRow> todo(rows.begin(), rows.end());
    std::vector<std::vector<SimResult>> done(todo.size());
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            for (std::size_t i = next++; i < todo.size(); i = next++) {
                atlb::SimOptions options;
                options.seed = todo[i].seed;
                options.accesses = serveAccesses;
                atlb::ExperimentContext ctx(options);
                for (const Scheme scheme : atlb::allSchemes)
                    done[i].push_back(ctx.run(todo[i].pair.workload,
                                              todo[i].pair.scenario, scheme));
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
    std::map<ColdRow, std::vector<SimResult>> byRow;
    for (std::size_t i = 0; i < todo.size(); ++i)
        byRow.emplace(todo[i], std::move(done[i]));
    return byRow;
}

/** Fixed-percentile latency, or 0 when the sample cannot support it. */
double
supported(const std::vector<double> &values, double p)
{
    return samplesBeyond(values.size(), p) >= 10 ? percentile(values, p)
                                                 : 0.0;
}

/** What the measured window produced. */
struct Window
{
    ClientLog all;
    double seconds = 0.0;
    double peak_rss_mb = 0.0;
    SweepResponse stats; //!< the server's counters after the window
    std::vector<Span> spans;
};

/** Run both clients against @p rig for args.seconds, then stop it. */
Window
runWindow(const RunArgs &args, ServeRig &rig,
          SpanRecorder::Clock::time_point epoch, Outcome &out)
{
    Script script(args.seed);
    std::vector<ClientLog> logs(serveClients);
    std::vector<std::unique_ptr<SpanRecorder>> recs;
    std::mutex out_m;
    std::vector<std::thread> clients;
    const auto deadline =
        epoch + std::chrono::duration_cast<SpanRecorder::Clock::duration>(
                    std::chrono::duration<double>(args.seconds));
    for (unsigned c = 0; c < serveClients; ++c) {
        recs.push_back(args.trace ? std::make_unique<SpanRecorder>(epoch, c + 1)
                                  : nullptr);
        clients.emplace_back(clientLoop, c, std::ref(script), std::cref(rig),
                             args.seed, deadline, recs.back().get(),
                             std::ref(logs[c]), std::ref(out),
                             std::ref(out_m));
    }
    for (std::thread &t : clients)
        t.join();

    Window w;
    w.seconds = secondsSince(epoch);
    w.peak_rss_mb = peakRssMb();
    atlb::ServeClient client;
    std::string error;
    SweepRequest req;
    req.op = atlb::WireOp::Stats;
    out.check(client.connect(rig.socketPath(), &error) &&
                  client.roundTrip(req, w.stats, &error),
              "stats request: " + error);
    client.disconnect();
    rig.stop();

    for (ClientLog &log : logs) {
        const auto append = [](auto &to, auto &from) {
            to.insert(to.end(), std::make_move_iterator(from.begin()),
                      std::make_move_iterator(from.end()));
        };
        append(w.all.hit_ms, log.hit_ms);
        append(w.all.miss_ms, log.miss_ms);
        append(w.all.warm_wire_us, log.warm_wire_us);
        append(w.all.warm_cells, log.warm_cells);
        append(w.all.cold, log.cold);
        append(w.all.keyed, log.keyed);
        w.all.requests += log.requests;
        w.all.simulated_accesses += log.simulated_accesses;
    }
    for (const auto &rec : recs) {
        if (rec)
            appendSpans(w.spans, rec->spans());
    }
    return w;
}

/**
 * Check every cold reply, the pre-warm replies included, against a
 * direct ExperimentContext run of the same cell. Returns the number of
 * distinct cold rows. The pre-warm rows are appended to @p cold.
 */
std::size_t
checkColdReplies(const ServeRig &rig,
                 std::vector<std::pair<ColdRow, std::vector<SimResult>>> &cold,
                 Outcome &out)
{
    const std::size_t row_cells = std::size(atlb::allSchemes);
    for (std::size_t p = 0; p < warmPairs().size(); ++p) {
        const auto first = rig.warmResults().begin() +
                           static_cast<std::ptrdiff_t>(p * row_cells);
        cold.emplace_back(ColdRow{rig.warmSeed(), warmPairs()[p]},
                          std::vector<SimResult>(first, first + row_cells));
    }
    std::set<ColdRow> distinct;
    for (const auto &[row, results] : cold)
        distinct.insert(row);
    const auto direct = directRows(distinct, 2);
    for (const auto &[row, results] : cold) {
        const std::vector<SimResult> &want = direct.at(row);
        for (std::size_t i = 0; i < results.size(); ++i)
            out.check(atlb::encodeSimResult(results[i]) ==
                          atlb::encodeSimResult(want[i]),
                      "cold reply for " + row.pair.workload + " " +
                          want[i].scheme + " differs from a direct run");
    }
    for (const auto &[row, results] : direct)
        checkRow(out, results, serveAccesses, "direct " + row.pair.workload);
    return distinct.size();
}

/**
 * The traced pass's serve figures: ResultStore calls timed on a copy of
 * the run's store, the replica split of a sample of cold rows, and the
 * scheduler counters.
 */
void
emitTracedServe(const RunArgs &args, const ServeRig &rig, Window &w,
                SpanRecorder::Clock::time_point epoch, Outcome &out)
{
    const ClientLog &all = w.all;
    const std::string copy_path = rig.storePath() + ".copy";
    const std::string fresh_path = rig.storePath() + ".append";
    std::filesystem::copy_file(
        rig.storePath(), copy_path,
        std::filesystem::copy_options::overwrite_existing);
    std::filesystem::remove(fresh_path);
    double lookup_us = 0.0;
    double append_us = 0.0;
    {
        atlb::ResultStore copy(copy_path);
        atlb::ResultStore fresh(fresh_path);
        const auto n = static_cast<double>(all.keyed.size());
        const auto lookups = SpanRecorder::Clock::now();
        std::uint64_t found = 0;
        for (const auto &[key, result] : all.keyed)
            found += copy.lookup(atlb::CellKey{key}).has_value() ? 1 : 0;
        lookup_us = secondsSince(lookups) * 1e6 / n;
        out.check(found == all.keyed.size(),
                  "the store copy lacks a replied cell");
        const auto appends = SpanRecorder::Clock::now();
        for (const auto &[key, result] : all.keyed)
            fresh.store(atlb::CellKey{key}, result);
        append_us = secondsSince(appends) * 1e6 / n;
    }
    std::vector<double> wire;
    for (std::size_t i = 0; i < all.warm_wire_us.size(); ++i)
        wire.push_back(all.warm_wire_us[i] -
                       static_cast<double>(all.warm_cells[i]) * lookup_us);

    // The replica of one cold row per (workload, scenario), in reply
    // order, each after the same row run untraced through the
    // scheduler's per-cell body.
    SpanRecorder rec(epoch, serveClients + 1);
    ReplicaTotals totals;
    double untraced_s = 0.0;
    std::set<std::tuple<std::string, ScenarioKind>> sampled;
    for (const auto &[row, results] : all.cold) {
        if (sampled.size() == replicaSample ||
            !sampled.emplace(row.pair.workload, row.pair.scenario).second)
            continue;
        atlb::SimOptions options;
        options.seed = row.seed;
        options.accesses = serveAccesses;
        untraced_s +=
            jobRow(options, row.pair.workload, row.pair.scenario).seconds;
        const std::vector<atlb::MmuStats> replica = replayRow(
            options, row.pair.workload, row.pair.scenario,
            AnchorTables::BuildPerPass, rec, sampled.size(), totals);
        for (std::size_t c = 0; c < replica.size(); ++c)
            out.op(sameStats(replica[c], results[c].stats),
                   "traced replica of " + row.pair.workload + " " +
                       results[c].scheme + " differs from its reply");
    }
    emitReplicaMetrics(out, rec.spans(), totals,
                       untraced_s / static_cast<double>(sampled.size()));

    const auto count = [&](const char *name) {
        return static_cast<double>(counter(w.stats, name));
    };
    const double builds = count("sched_pair_builds");
    const double reuses = count("sched_pair_reuses");
    out.metric("serve.store_lookup_us", lookup_us, "us");
    out.metric("serve.store_append_us", append_us, "us");
    out.metric("serve.wire_us", median(wire), "us");
    out.metric("serve.queue_wait_us_p50", count("queue_wait_us_p50"), "us");
    out.metric("serve.queue_wait_us_p99", count("queue_wait_us_p99"), "us");
    out.metric("serve.hit_frac", count("hits") / count("cells"), "fraction");
    out.metric("serve.pair_reuse_frac", reuses / (builds + reuses),
               "fraction");
    out.metric("serve.dedups", count("dedups"), "count");
    out.metric("serve.simulations", count("simulations"), "count");
    out.metric("serve.cell_errors", count("cell_errors"), "count");
    out.metric("serve.admission_stalls", count("admission_stalls"), "count");
    out.metric("serve.hit_req_p50_ms", median(all.hit_ms), "ms");
    out.metric("serve.hit_req_p99_ms", supported(all.hit_ms, 99.0), "ms");
    out.metric("serve.miss_req_p50_ms", median(all.miss_ms), "ms");
    out.metric("serve.miss_req_p90_ms", supported(all.miss_ms, 90.0), "ms");
    emitModelZeros(out);

    appendSpans(w.spans, rec.spans());
    writeTraceFile(out, args.out_dir + "/serve_mixed.trace.json", w.spans);
}

} // namespace

Outcome
runServeWorkload(const RunArgs &args)
{
    Outcome out;
    std::vector<double> setups;
    std::unique_ptr<ServeRig> rig;
    for (int i = 0; i < setupRepeats; ++i) {
        rig.reset(); // stop the previous set-up's server first
        const auto start = SpanRecorder::Clock::now();
        rig = std::make_unique<ServeRig>(
            args.out_dir + "/serve-" + std::to_string(i), args.seed, out);
        setups.push_back(secondsSince(start));
    }

    const auto epoch = SpanRecorder::Clock::now();
    Window w = runWindow(args, *rig, epoch, out);
    const ClientLog &all = w.all;
    if (all.hit_ms.empty() || all.miss_ms.empty()) {
        out.check(false, "the window completed no hit or no miss request");
        return out;
    }
    const std::size_t distinct = checkColdReplies(*rig, w.all.cold, out);

    std::ostringstream counters;
    counters << "server: cells=" << counter(w.stats, "cells")
             << " hits=" << counter(w.stats, "hits")
             << " dedups=" << counter(w.stats, "dedups")
             << " simulations=" << counter(w.stats, "simulations")
             << " cell_errors=" << counter(w.stats, "cell_errors")
             << " pair_builds=" << counter(w.stats, "sched_pair_builds")
             << " distinct cold rows=" << distinct;
    out.note(counters.str());
    out.note(describeTiming("hit requests", all.hit_ms, "ms"));
    out.note(describeTiming("miss requests", all.miss_ms, "ms"));

    if (args.trace) {
        emitTracedServe(args, *rig, w, epoch, out);
        return out;
    }
    std::vector<double> all_ms = all.hit_ms;
    all_ms.insert(all_ms.end(), all.miss_ms.begin(), all.miss_ms.end());
    out.metric("setup_s", median(setups), "s");
    out.metric("row_s", median(all.miss_ms) / 1e3, "s");
    out.metric("sim_maccess_per_s",
               static_cast<double>(all.simulated_accesses) / w.seconds / 1e6,
               "M/s");
    out.metric("req_per_s", static_cast<double>(all.requests) / w.seconds,
               "1/s");
    out.metric("req_p50_ms", median(all_ms), "ms");
    out.metric("peak_rss_mb", w.peak_rss_mb, "MB");
    return out;
}

} // namespace perfbench
