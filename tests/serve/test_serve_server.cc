/**
 * @file
 * End-to-end tests for the sweep service: a real SweepServer on a unix
 * socket, driven through ServeClient (and one raw socket for malformed
 * lines). Pins the ISSUE acceptance properties: served results are
 * byte-identical to a direct ExperimentContext run, a repeated sweep
 * recomputes zero cells, and N identical concurrent submissions
 * simulate exactly once.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hh"
#include "serve/server.hh"
#include "serve/wire.hh"
#include "sim/experiment.hh"

namespace atlb
{
namespace
{

namespace fs = std::filesystem;

SimOptions
quickOptions()
{
    SimOptions opts;
    opts.accesses = 20'000;
    opts.seed = 42;
    opts.footprint_scale = 0.02;
    return opts;
}

/** A running server on fresh socket/store paths, torn down on exit. */
struct TestServer
{
    ServeOptions opts;
    std::unique_ptr<SweepServer> server;
    std::thread thread;

    explicit TestServer(const std::string &name)
    {
        opts.socket_path = testing::TempDir() + "atlb_" + name + ".sock";
        opts.store_path =
            testing::TempDir() + "atlb_" + name + ".results";
        fs::remove(opts.socket_path);
        fs::remove(opts.store_path);
        opts.base = quickOptions();
        server = std::make_unique<SweepServer>(opts);
        std::string error;
        if (!server->start(&error)) {
            ADD_FAILURE() << "server start failed: " << error;
            return;
        }
        thread = std::thread([this] { server->run(); });
    }

    ~TestServer()
    {
        if (server)
            server->requestStop();
        if (thread.joinable())
            thread.join();
        fs::remove(opts.store_path);
    }
};

SweepResponse
roundTrip(const TestServer &ts, const SweepRequest &req)
{
    ServeClient client;
    std::string error;
    EXPECT_TRUE(client.connect(ts.opts.socket_path, &error)) << error;
    SweepResponse resp;
    EXPECT_TRUE(client.roundTrip(req, resp, &error)) << error;
    return resp;
}

std::uint64_t
counterValue(const SweepResponse &resp, const std::string &name)
{
    for (const auto &[key, value] : resp.counters) {
        if (key == name)
            return value;
    }
    ADD_FAILURE() << "response carries no counter '" << name << "'";
    return 0;
}

/** 2 workloads x medium x 2 schemes: small but exercises Anchor. */
SweepRequest
gridRequest(WireOp op)
{
    SweepRequest req;
    req.op = op;
    for (const char *workload : {"canneal", "sphinx3"}) {
        for (const Scheme scheme : {Scheme::Base, Scheme::Anchor}) {
            CellRequest cell;
            cell.workload = workload;
            cell.scenario = ScenarioKind::MedContig;
            cell.scheme = scheme;
            req.cells.push_back(cell);
        }
    }
    return req;
}

void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.scenario, b.scenario);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.anchor_distance, b.anchor_distance);
    EXPECT_EQ(a.stats.accesses, b.stats.accesses);
    EXPECT_EQ(a.stats.l1_hits, b.stats.l1_hits);
    EXPECT_EQ(a.stats.l2_regular_hits, b.stats.l2_regular_hits);
    EXPECT_EQ(a.stats.coalesced_hits, b.stats.coalesced_hits);
    EXPECT_EQ(a.stats.page_walks, b.stats.page_walks);
    EXPECT_EQ(a.stats.translation_cycles, b.stats.translation_cycles);
    EXPECT_EQ(a.stats.shootdowns, b.stats.shootdowns);
    EXPECT_EQ(a.stats.shootdown_cycles, b.stats.shootdown_cycles);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.instructions),
              std::bit_cast<std::uint64_t>(b.instructions));
    EXPECT_EQ(a.l2_hit_cycles, b.l2_hit_cycles);
    EXPECT_EQ(a.coalesced_cycles, b.coalesced_cycles);
    EXPECT_EQ(a.walk_cycles, b.walk_cycles);
}

TEST(ServeServer, RepeatSubmitHitsAndMatchesDirectRun)
{
    TestServer ts("repeat");

    const SweepResponse first = roundTrip(ts, gridRequest(WireOp::Submit));
    ASSERT_TRUE(first.ok) << first.error;
    ASSERT_EQ(first.cells.size(), 4u);
    for (const CellReply &cell : first.cells)
        EXPECT_EQ(cell.status, CellStatus::Computed);
    EXPECT_EQ(counterValue(first, "simulations"), 4u);
    EXPECT_EQ(counterValue(first, "hits"), 0u);

    // The whole grid again: zero cells recomputed, all from the store.
    const SweepResponse second =
        roundTrip(ts, gridRequest(WireOp::Submit));
    ASSERT_TRUE(second.ok) << second.error;
    for (std::size_t i = 0; i < second.cells.size(); ++i) {
        EXPECT_EQ(second.cells[i].status, CellStatus::Hit);
        EXPECT_EQ(second.cells[i].key, first.cells[i].key);
        expectSameResult(second.cells[i].result, first.cells[i].result);
    }
    EXPECT_EQ(counterValue(second, "simulations"), 4u); // unchanged
    EXPECT_EQ(counterValue(second, "hits"), 4u);

    // Served results are byte-identical to a direct local run.
    ExperimentContext ctx(quickOptions());
    const SweepRequest grid = gridRequest(WireOp::Submit);
    for (std::size_t i = 0; i < grid.cells.size(); ++i) {
        const CellRequest &cell = grid.cells[i];
        const SimResult direct =
            ctx.run(cell.workload, cell.scenario, cell.scheme);
        expectSameResult(first.cells[i].result, direct);
        EXPECT_EQ(first.cells[i].key,
                  ctx.cellKey(cell.workload, cell.scenario, cell.scheme)
                      .raw());
    }
}

TEST(ServeServer, QueryMissesThenHitsAfterSubmit)
{
    TestServer ts("query");

    const SweepResponse miss = roundTrip(ts, gridRequest(WireOp::Query));
    ASSERT_TRUE(miss.ok) << miss.error;
    for (const CellReply &cell : miss.cells)
        EXPECT_EQ(cell.status, CellStatus::Miss);
    EXPECT_EQ(counterValue(miss, "simulations"), 0u)
        << "query must never simulate";

    roundTrip(ts, gridRequest(WireOp::Submit));
    const SweepResponse hit = roundTrip(ts, gridRequest(WireOp::Query));
    ASSERT_TRUE(hit.ok) << hit.error;
    for (const CellReply &cell : hit.cells)
        EXPECT_EQ(cell.status, CellStatus::Hit);
}

TEST(ServeServer, UnknownWorkloadIsACellError)
{
    TestServer ts("cell_error");

    SweepRequest req;
    req.op = WireOp::Submit;
    CellRequest bad;
    bad.workload = "no_such_workload";
    CellRequest good;
    good.workload = "canneal";
    req.cells = {bad, good};

    const SweepResponse resp = roundTrip(ts, req);
    ASSERT_TRUE(resp.ok) << resp.error; // request-level ok
    ASSERT_EQ(resp.cells.size(), 2u);
    EXPECT_EQ(resp.cells[0].status, CellStatus::Error);
    EXPECT_FALSE(resp.cells[0].error.empty());
    EXPECT_EQ(resp.cells[1].status, CellStatus::Computed);
    EXPECT_EQ(counterValue(resp, "cell_errors"), 1u);
}

TEST(ServeServer, InvalidKnobsAreARequestError)
{
    TestServer ts("bad_knobs");

    SweepRequest req = gridRequest(WireOp::Submit);
    req.scale = 2.0; // out of (0, 1]
    const SweepResponse resp = roundTrip(ts, req);
    EXPECT_FALSE(resp.ok);
    EXPECT_FALSE(resp.error.empty());
    EXPECT_EQ(counterValue(resp, "simulations"), 0u);
}

TEST(ServeServer, MalformedLinePoisonsOnlyThatRequest)
{
    TestServer ts("malformed");

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, ts.opts.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)),
              0);

    const auto raw_round_trip = [fd](const std::string &line) {
        const std::string msg = line + "\n";
        EXPECT_EQ(::send(fd, msg.data(), msg.size(), MSG_NOSIGNAL),
                  static_cast<long>(msg.size()));
        std::string buf;
        char chunk[4096];
        while (buf.find('\n') == std::string::npos) {
            const long n = ::recv(fd, chunk, sizeof(chunk), 0);
            if (n <= 0)
                break;
            buf.append(chunk, static_cast<std::size_t>(n));
        }
        return buf.substr(0, buf.find('\n'));
    };

    SweepResponse resp;
    std::string error;
    ASSERT_TRUE(
        decodeResponse(raw_round_trip("this is not json"), resp, &error))
        << error;
    EXPECT_FALSE(resp.ok);
    EXPECT_FALSE(resp.error.empty());
    EXPECT_EQ(counterValue(resp, "bad_requests"), 1u);

    // The connection survives: a valid request on the same socket.
    SweepRequest stats;
    stats.op = WireOp::Stats;
    SweepResponse ok_resp;
    ASSERT_TRUE(decodeResponse(raw_round_trip(encodeRequest(stats)),
                               ok_resp, &error))
        << error;
    EXPECT_TRUE(ok_resp.ok);
    ::close(fd);
}

TEST(ServeServer, ConcurrentIdenticalSubmitsSimulateOnce)
{
    TestServer ts("dedup");

    SweepRequest req;
    req.op = WireOp::Submit;
    CellRequest cell;
    cell.workload = "canneal";
    cell.scenario = ScenarioKind::MedContig;
    cell.scheme = Scheme::Base;
    req.cells = {cell};

    constexpr int clients = 6;
    std::vector<SweepResponse> responses(clients);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int i = 0; i < clients; ++i) {
        threads.emplace_back([&ts, &req, &responses, i] {
            responses[static_cast<std::size_t>(i)] = roundTrip(ts, req);
        });
    }
    for (std::thread &t : threads)
        t.join();

    int computed = 0;
    for (const SweepResponse &resp : responses) {
        ASSERT_TRUE(resp.ok) << resp.error;
        ASSERT_EQ(resp.cells.size(), 1u);
        const CellStatus status = resp.cells[0].status;
        EXPECT_TRUE(status == CellStatus::Computed ||
                    status == CellStatus::Deduped ||
                    status == CellStatus::Hit)
            << cellStatusName(status);
        computed += status == CellStatus::Computed ? 1 : 0;
        expectSameResult(resp.cells[0].result, responses[0].cells[0].result);
    }
    EXPECT_EQ(computed, 1) << "exactly one client may simulate the cell";

    SweepRequest stats;
    stats.op = WireOp::Stats;
    const SweepResponse final_stats = roundTrip(ts, stats);
    EXPECT_EQ(counterValue(final_stats, "simulations"), 1u);
    EXPECT_EQ(counterValue(final_stats, "cells"),
              static_cast<std::uint64_t>(clients));
}

TEST(ServeServer, OverlappingGridsConserveCountersAndMatchDirectRun)
{
    TestServer ts("stress");

    // Every client submits the shared 4-cell grid plus one unique
    // Anchor cell, so requests overlap (dedup/hit paths) and diverge
    // (claimed paths) at the same time.
    constexpr int clients = 6;
    std::vector<SweepRequest> requests;
    for (int i = 0; i < clients; ++i) {
        SweepRequest req = gridRequest(WireOp::Submit);
        CellRequest unique;
        unique.workload = i % 2 == 0 ? "canneal" : "sphinx3";
        unique.scenario = ScenarioKind::MedContig;
        unique.scheme = Scheme::Anchor;
        unique.distance = std::uint64_t{2} << i; // valid: power of two
        req.cells.push_back(unique);
        requests.push_back(req);
    }

    std::vector<SweepResponse> responses(clients);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int i = 0; i < clients; ++i) {
        threads.emplace_back([&ts, &requests, &responses, i] {
            responses[static_cast<std::size_t>(i)] =
                roundTrip(ts, requests[static_cast<std::size_t>(i)]);
        });
    }
    for (std::thread &t : threads)
        t.join();

    // Bit-identity: every reply cell, regardless of whether it was
    // computed, deduped, or served from the store, matches a direct
    // local run of the same cell.
    ExperimentContext ctx(quickOptions());
    for (int i = 0; i < clients; ++i) {
        const SweepResponse &resp =
            responses[static_cast<std::size_t>(i)];
        const SweepRequest &req = requests[static_cast<std::size_t>(i)];
        ASSERT_TRUE(resp.ok) << resp.error;
        ASSERT_EQ(resp.cells.size(), req.cells.size());
        for (std::size_t c = 0; c < req.cells.size(); ++c) {
            const CellRequest &cell = req.cells[c];
            EXPECT_NE(resp.cells[c].status, CellStatus::Error);
            expectSameResult(resp.cells[c].result,
                             ctx.run(cell.workload, cell.scenario,
                                     cell.scheme, cell.distance));
        }
    }

    // Counter conservation: a submitted cell ends as exactly one of
    // hit / dedup / simulation / error, and each distinct cell
    // simulates exactly once.
    SweepRequest stats;
    stats.op = WireOp::Stats;
    const SweepResponse final_stats = roundTrip(ts, stats);
    const std::uint64_t cells = counterValue(final_stats, "cells");
    EXPECT_EQ(cells, static_cast<std::uint64_t>(clients) * 5u);
    EXPECT_EQ(counterValue(final_stats, "hits") +
                  counterValue(final_stats, "dedups") +
                  counterValue(final_stats, "simulations") +
                  counterValue(final_stats, "cell_errors"),
              cells);
    EXPECT_EQ(counterValue(final_stats, "simulations"),
              4u + static_cast<std::uint64_t>(clients));
    EXPECT_EQ(counterValue(final_stats, "cell_errors"), 0u);
    EXPECT_EQ(counterValue(final_stats, "queue_wait_us_count"),
              counterValue(final_stats, "simulations"))
        << "every simulated cell must record its queue wait";
    EXPECT_GE(counterValue(final_stats, "request_wall_us_count"),
              static_cast<std::uint64_t>(clients));
}

TEST(ServeServer, SmallRequestIsNotStuckBehindALargeGrid)
{
    TestServer ts("fairness");

    // A large grid: 24 distinct Anchor cells. With the server's single
    // scheduler worker (base threads = 1) this runs long enough for a
    // small request to arrive mid-flight. Its cells simulate 10x the
    // base accesses: at the base length the whole grid takes only a
    // few milliseconds, and it could finish before the small request
    // was even admitted.
    constexpr std::uint64_t large_accesses = 200'000;
    SweepRequest large;
    large.op = WireOp::Submit;
    large.accesses = large_accesses;
    for (const char *workload : {"canneal", "sphinx3"}) {
        for (std::uint64_t d = 2; d <= (1u << 12); d <<= 1) {
            CellRequest cell;
            cell.workload = workload;
            cell.scenario = ScenarioKind::MedContig;
            cell.scheme = Scheme::Anchor;
            cell.distance = d;
            large.cells.push_back(cell);
        }
    }

    std::atomic<bool> large_done{false};
    SweepResponse large_resp;
    std::thread big([&] {
        large_resp = roundTrip(ts, large);
        large_done = true;
    });

    // Wait until the large grid is actually inside the scheduler.
    SweepRequest stats;
    stats.op = WireOp::Stats;
    for (int i = 0; i < 1000 && !large_done; ++i) {
        const SweepResponse s = roundTrip(ts, stats);
        if (counterValue(s, "sched_depth") +
                counterValue(s, "sched_running") >
            0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    SweepRequest small;
    small.op = WireOp::Submit;
    CellRequest cell;
    cell.workload = "canneal";
    cell.scenario = ScenarioKind::HighContig;
    cell.scheme = Scheme::Base;
    small.cells = {cell};
    const SweepResponse small_resp = roundTrip(ts, small);

    // Round-robin admission: the 1-cell request finishes after at most
    // a couple of the large grid's 24 cells, so the grid must still be
    // in flight when the small reply lands.
    EXPECT_FALSE(large_done.load())
        << "the small request queued behind the whole large grid";
    ASSERT_TRUE(small_resp.ok) << small_resp.error;
    ASSERT_EQ(small_resp.cells.size(), 1u);
    EXPECT_EQ(small_resp.cells[0].status, CellStatus::Computed);

    big.join();
    ASSERT_TRUE(large_resp.ok) << large_resp.error;
    for (const CellReply &reply : large_resp.cells)
        EXPECT_EQ(reply.status, CellStatus::Computed);

    // Interleaving must not bend any result: spot-check both requests
    // against direct runs.
    ExperimentContext ctx(quickOptions());
    expectSameResult(small_resp.cells[0].result,
                     ctx.run("canneal", ScenarioKind::HighContig,
                             Scheme::Base));
    SimOptions large_options = quickOptions();
    large_options.accesses = large_accesses;
    ExperimentContext large_ctx(large_options);
    expectSameResult(large_resp.cells[0].result,
                     large_ctx.run("canneal", ScenarioKind::MedContig,
                                   Scheme::Anchor, 2));
}

TEST(ServeServer, ShutdownOpStopsTheServer)
{
    TestServer ts("shutdown");

    SweepRequest req;
    req.op = WireOp::Shutdown;
    const SweepResponse resp = roundTrip(ts, req);
    EXPECT_TRUE(resp.ok);

    ts.thread.join(); // run() must return on its own
    EXPECT_FALSE(fs::exists(ts.opts.socket_path))
        << "a stopped server unlinks its socket";
}

} // namespace
} // namespace atlb
