// Loopback tests for the network front end: concurrent clients must get
// correct, k-anonymous answers over real sockets; backpressure must reject
// with a typed retryable error; a readiness event must reach only the
// connection it was registered for; and net/* fault injection may hurt
// latency and availability but never k-anonymity.

#include "net/server.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "attack/auditor.h"
#include "common/rng.h"
#include "csp/server.h"
#include "fault/injector.h"
#include "net/client.h"
#include "net/http.h"
#include "net/wire.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/mem.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/slo.h"
#include "obs/tail_trace.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "workload/bay_area.h"
#include "workload/movement.h"

namespace pasa {
namespace net {
namespace {

BayAreaOptions SmallBay() {
  BayAreaOptions options;
  options.log2_map_side = 13;
  options.num_intersections = 300;
  options.users_per_intersection = 5;
  options.user_sigma = 40.0;
  options.num_clusters = 8;
  options.seed = 17;
  return options;
}

PoiDatabase SomePois(const MapExtent& extent, size_t n) {
  Rng rng(5);
  const std::vector<std::string> categories = {"rest", "groc", "cinema"};
  std::vector<PointOfInterest> pois;
  for (size_t i = 0; i < n; ++i) {
    pois.push_back(PointOfInterest{
        static_cast<int64_t>(i),
        Point{static_cast<Coord>(rng.NextBounded(extent.side())),
              static_cast<Coord>(rng.NextBounded(extent.side()))},
        categories[rng.NextBounded(categories.size())]});
  }
  return PoiDatabase(std::move(pois));
}

struct Fixture {
  explicit Fixture(int k = 10, NetServerOptions net_options = {}) {
    const BayAreaGenerator gen(SmallBay());
    db = gen.Generate(800);
    extent = gen.extent();
    CspOptions options;
    options.k = k;
    Result<CspServer> started =
        CspServer::Start(db, extent, SomePois(extent, 300), options);
    EXPECT_TRUE(started.ok()) << started.status().ToString();
    csp = std::make_unique<CspServer>(std::move(*started));
    Result<std::unique_ptr<NetServer>> net_started =
        NetServer::Start(csp.get(), net_options);
    EXPECT_TRUE(net_started.ok()) << net_started.status().ToString();
    server = std::move(*net_started);
  }

  LocationDatabase db;
  MapExtent extent;
  std::unique_ptr<CspServer> csp;
  std::unique_ptr<NetServer> server;
};

// One client issuing serve requests for `rows` users; every response must
// be k-anonymous and mask the true location.
void ServeAndVerify(uint16_t port, const LocationDatabase& db, int k,
                    size_t first_row, size_t rows,
                    std::atomic<int>* failures) {
  Result<NetClient> client = NetClient::Connect(port, 10.0);
  if (!client.ok()) {
    failures->fetch_add(static_cast<int>(rows));
    return;
  }
  for (size_t i = 0; i < rows; ++i) {
    const auto& row = db.row((first_row + i) % db.size());
    const ServiceRequest sr{row.user, row.location, {{"poi", "rest"}}};
    Result<Frame> frame = client->Call(MsgType::kServeRequest,
                                       EncodeServiceRequest(sr), 10.0);
    if (!frame.ok() || frame->type != MsgType::kServeResponse) {
      failures->fetch_add(1);
      continue;
    }
    Result<ServeResponseMsg> msg = DecodeServeResponse(frame->payload);
    if (!msg.ok()) {
      failures->fetch_add(1);
      continue;
    }
    const Rect cloak{msg->cloak_x1, msg->cloak_y1, msg->cloak_x2,
                     msg->cloak_y2};
    if (msg->group_size < static_cast<uint64_t>(k) ||
        !cloak.Contains(sr.location) || msg->rid <= 0) {
      failures->fetch_add(1);
    }
  }
}

TEST(NetServerTest, StartStopIsClean) {
  Fixture fx;
  EXPECT_GT(fx.server->port(), 0);
  fx.server->Stop();
  fx.server->Stop();  // idempotent
}

TEST(NetServerTest, ServesKAnonymousAnswersToConcurrentClients) {
  Fixture fx(/*k=*/10);
  const uint16_t port = fx.server->port();
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  const size_t kClients = 8;
  const size_t kRequests = 50;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back(ServeAndVerify, port, std::cref(fx.db), 10,
                         c * kRequests, kRequests, &failures);
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  const NetServer::Stats stats = fx.server->stats();
  EXPECT_EQ(stats.requests_served, kClients * kRequests);
  EXPECT_EQ(stats.frames_rejected, 0u);
  fx.server->Stop();
}

TEST(NetServerTest, AnonymizeOnlyPathReturnsCloak) {
  Fixture fx(/*k=*/10);
  Result<NetClient> client = NetClient::Connect(fx.server->port());
  ASSERT_TRUE(client.ok());
  const auto& row = fx.db.row(3);
  const ServiceRequest sr{row.user, row.location, {}};
  Result<Frame> frame = client->Call(MsgType::kAnonymizeRequest,
                                     EncodeServiceRequest(sr));
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->type, MsgType::kAnonymizeResponse);
  Result<AnonymizeResponseMsg> msg = DecodeAnonymizeResponse(frame->payload);
  ASSERT_TRUE(msg.ok());
  EXPECT_GE(msg->group_size, 10u);
  const Rect cloak{msg->cloak_x1, msg->cloak_y1, msg->cloak_x2,
                   msg->cloak_y2};
  EXPECT_TRUE(cloak.Contains(sr.location));
  fx.server->Stop();
}

TEST(NetServerTest, SnapshotAdvanceOverTheWire) {
  Fixture fx(/*k=*/10);
  Result<NetClient> client = NetClient::Connect(fx.server->port());
  ASSERT_TRUE(client.ok());

  MovementOptions move_options;
  move_options.seed = 99;
  SnapshotAdvanceMsg advance;
  advance.moves = DrawMoves(fx.db, fx.extent, move_options);
  ASSERT_FALSE(advance.moves.empty());
  Result<Frame> frame = client->Call(MsgType::kSnapshotAdvance,
                                     EncodeSnapshotAdvance(advance), 30.0);
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->type, MsgType::kSnapshotReport);
  Result<SnapshotReportMsg> report = DecodeSnapshotReport(frame->payload);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->moves_applied + report->moves_quarantined,
            advance.moves.size());

  // The policy after the advance must still be k-anonymous.
  EXPECT_TRUE(AuditPolicyAware(fx.csp->policy()).Anonymous(10));

  // And a user who moved must now be served at the new location.
  ASSERT_TRUE(ApplyMovesToDatabase(advance.moves, &fx.db).ok());
  std::atomic<int> failures{0};
  ServeAndVerify(fx.server->port(), fx.db, 10, 0, 50, &failures);
  EXPECT_EQ(failures.load(), 0);
  fx.server->Stop();
}

// The audit trail holds one record per request, with its real outcome: a
// serve and an anonymize each leave their cloak decision, and a snapshot
// advance, a control frame rather than a request, leaves none.
TEST(NetServerTest, AuditTrailRecordsRequestsWithTheirRealOutcome) {
  obs::ProvenanceRing& ring = obs::ProvenanceRing::Global();
  ring.Enable();
  Fixture fx(/*k=*/10);
  Result<NetClient> client = NetClient::Connect(fx.server->port());
  ASSERT_TRUE(client.ok());
  const auto& row = fx.db.row(3);
  const ServiceRequest sr{row.user, row.location, {{"poi", "rest"}}};

  Result<Frame> served =
      client->Call(MsgType::kServeRequest, EncodeServiceRequest(sr));
  ASSERT_TRUE(served.ok());
  ASSERT_EQ(served->type, MsgType::kServeResponse);
  Result<ServeResponseMsg> serve_msg = DecodeServeResponse(served->payload);
  ASSERT_TRUE(serve_msg.ok());

  Result<Frame> cloaked =
      client->Call(MsgType::kAnonymizeRequest, EncodeServiceRequest(sr));
  ASSERT_TRUE(cloaked.ok());
  ASSERT_EQ(cloaked->type, MsgType::kAnonymizeResponse);
  Result<AnonymizeResponseMsg> cloak_msg =
      DecodeAnonymizeResponse(cloaked->payload);
  ASSERT_TRUE(cloak_msg.ok());

  MovementOptions move_options;
  move_options.seed = 99;
  SnapshotAdvanceMsg advance;
  advance.moves = DrawMoves(fx.db, fx.extent, move_options);
  Result<Frame> report = client->Call(MsgType::kSnapshotAdvance,
                                      EncodeSnapshotAdvance(advance), 30.0);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->type, MsgType::kSnapshotReport);

  std::vector<obs::ProvenanceRecord> records = ring.Records();
  ASSERT_EQ(records.size(), 2u);
  const obs::ProvenanceRecord& serve = records[0];
  EXPECT_EQ(serve.outcome, obs::RequestOutcome::kServed);
  EXPECT_EQ(serve.status, StatusCode::kOk);
  EXPECT_EQ(serve.rid, serve_msg->rid);
  EXPECT_EQ(serve.sender, row.user);
  EXPECT_EQ(serve.group_size, serve_msg->group_size);
  EXPECT_GT(serve.lbs_seconds, 0.0);
  EXPECT_GT(serve.net_encode_seconds, 0.0);
  const obs::ProvenanceRecord& anonymize = records[1];
  EXPECT_EQ(anonymize.outcome, obs::RequestOutcome::kServed);
  EXPECT_EQ(anonymize.status, StatusCode::kOk);
  EXPECT_EQ(anonymize.rid, cloak_msg->rid);
  EXPECT_NE(anonymize.rid, 0);
  EXPECT_EQ(anonymize.sender, row.user);
  EXPECT_EQ(anonymize.k, 10);
  EXPECT_EQ(anonymize.group_size, cloak_msg->group_size);
  EXPECT_EQ(anonymize.cloak_x1, cloak_msg->cloak_x1);
  EXPECT_EQ(anonymize.cloak_y2, cloak_msg->cloak_y2);
  EXPECT_TRUE(anonymize.tree_path.known());
  EXPECT_EQ(anonymize.lbs_attempts, 0u);

  // An anonymize request the CSP rejects is audited as rejected.
  const ServiceRequest unknown{987654321, row.location, {}};
  Result<Frame> rejected =
      client->Call(MsgType::kAnonymizeRequest, EncodeServiceRequest(unknown));
  ASSERT_TRUE(rejected.ok());
  ASSERT_EQ(rejected->type, MsgType::kError);
  records = ring.Records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2].outcome, obs::RequestOutcome::kRejected);
  EXPECT_EQ(records[2].status, StatusCode::kInvalidArgument);
  EXPECT_EQ(records[2].sender, 987654321);
  fx.server->Stop();
  ring.Disable();
}

TEST(NetServerTest, RejectsUnknownUserWithTypedError) {
  Fixture fx;
  Result<NetClient> client = NetClient::Connect(fx.server->port());
  ASSERT_TRUE(client.ok());
  const ServiceRequest sr{999999, {0, 0}, {}};
  Result<Frame> frame = client->Call(MsgType::kServeRequest,
                                     EncodeServiceRequest(sr));
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->type, MsgType::kError);
  Result<ErrorMsg> msg = DecodeError(frame->payload);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->code, StatusCode::kInvalidArgument);
  EXPECT_EQ(msg->retry_after_micros, 0u);  // not retryable
  fx.server->Stop();
}

TEST(NetServerTest, GarbageBytesCloseTheConnectionOnly) {
  Fixture fx;
  Result<NetClient> bad = NetClient::Connect(fx.server->port());
  ASSERT_TRUE(bad.ok());
  // 64 bytes of garbage: the server must answer with a typed error and
  // close this connection — and keep serving others.
  std::string garbage(64, '\xFF');
  ASSERT_TRUE(bad->SendFrame(MsgType::kHealthRequest, "").ok());  // warm up
  Result<Frame> health = bad->ReadFrame();
  ASSERT_TRUE(health.ok());
  const ssize_t wrote = ::send(bad->fd(), garbage.data(), garbage.size(), 0);
  ASSERT_EQ(wrote, static_cast<ssize_t>(garbage.size()));
  Result<Frame> reply = bad->ReadFrame(5.0);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, MsgType::kError);
  // The stream is dead after the error frame.
  Result<Frame> eof = bad->ReadFrame(5.0);
  EXPECT_FALSE(eof.ok());

  std::atomic<int> failures{0};
  ServeAndVerify(fx.server->port(), fx.db, 10, 0, 20, &failures);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(fx.server->stats().frames_rejected, 1u);
  fx.server->Stop();
}

TEST(NetServerTest, BackpressureRejectsWithRetryAfter) {
  NetServerOptions net_options;
  net_options.max_pending = 1;
  net_options.max_batch = 1;
  net_options.retry_after_micros = 2500;
  Fixture fx(/*k=*/10, net_options);
  Result<NetClient> client = NetClient::Connect(fx.server->port());
  ASSERT_TRUE(client.ok());

  // Pipeline many requests without reading: with a queue bound of one,
  // some must be admission-rejected with kUnavailable + retry-after.
  const auto& row = fx.db.row(0);
  const std::string payload =
      EncodeServiceRequest({row.user, row.location, {{"poi", "rest"}}});
  const int kBurst = 64;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(client->SendFrame(MsgType::kServeRequest, payload).ok());
  }
  int served = 0;
  int rejected = 0;
  for (int i = 0; i < kBurst; ++i) {
    Result<Frame> frame = client->ReadFrame(10.0);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    if (frame->type == MsgType::kServeResponse) {
      ++served;
    } else {
      ASSERT_EQ(frame->type, MsgType::kError);
      Result<ErrorMsg> msg = DecodeError(frame->payload);
      ASSERT_TRUE(msg.ok());
      EXPECT_EQ(msg->code, StatusCode::kUnavailable);
      EXPECT_EQ(msg->retry_after_micros, 2500u);
      ++rejected;
    }
  }
  EXPECT_EQ(served + rejected, kBurst);
  EXPECT_GT(served, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(fx.server->stats().admission_rejected,
            static_cast<uint64_t>(rejected));

  // Health bypasses admission even under pressure.
  Result<Frame> health = client->Call(MsgType::kHealthRequest, "");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->type, MsgType::kHealthResponse);
  fx.server->Stop();
}

TEST(NetServerTest, HealthAndStatsReportServerState) {
  Fixture fx;
  Result<NetClient> client = NetClient::Connect(fx.server->port());
  ASSERT_TRUE(client.ok());

  Result<Frame> health = client->Call(MsgType::kHealthRequest, "");
  ASSERT_TRUE(health.ok());
  ASSERT_EQ(health->type, MsgType::kHealthResponse);
  Result<HealthResponseMsg> h = DecodeHealthResponse(health->payload);
  ASSERT_TRUE(h.ok());
  EXPECT_TRUE(h->healthy);
  EXPECT_EQ(h->connections, 1u);
  EXPECT_GT(h->queue_capacity, 0u);

  const auto& row = fx.db.row(1);
  const ServiceRequest sr{row.user, row.location, {{"poi", "rest"}}};
  ASSERT_TRUE(
      client->Call(MsgType::kServeRequest, EncodeServiceRequest(sr)).ok());

  Result<Frame> stats = client->Call(MsgType::kStatsRequest, "");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->type, MsgType::kStatsResponse);
  Result<StatsResponseMsg> s = DecodeStatsResponse(stats->payload);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->requests_served, 1u);
  fx.server->Stop();
}

TEST(NetServerTest, ShutdownFrameStopsTheServer) {
  Fixture fx;
  Result<NetClient> client = NetClient::Connect(fx.server->port());
  ASSERT_TRUE(client.ok());
  Result<Frame> ack = client->Call(MsgType::kShutdownRequest, "");
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->type, MsgType::kShutdownResponse);
  EXPECT_TRUE(fx.server->WaitForShutdown(10.0));
  fx.server->Stop();
}

// Graceful drain, happy path: requests already admitted when the shutdown
// frame lands keep dispatching within the drain deadline, and their
// responses reach the client before the loop exits — shutdown loses no
// admitted work.
TEST(NetServerTest, ShutdownDrainsAdmittedRequests) {
  NetServerOptions net_options;
  net_options.max_batch = 1;  // dispatch slowly so the drain does real work
  net_options.drain_deadline_seconds = 10.0;
  Fixture fx(/*k=*/10, net_options);
  Result<NetClient> pipeline = NetClient::Connect(fx.server->port());
  ASSERT_TRUE(pipeline.ok());
  const auto& row = fx.db.row(0);
  const std::string payload =
      EncodeServiceRequest({row.user, row.location, {{"poi", "rest"}}});
  const int kBurst = 16;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(pipeline->SendFrame(MsgType::kServeRequest, payload).ok());
  }
  // Wait until the whole burst is decoded (admitted or already served), so
  // the shutdown below cannot race ahead of it.
  while (fx.server->stats().frames_decoded < static_cast<uint64_t>(kBurst)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Result<NetClient> stopper = NetClient::Connect(fx.server->port());
  ASSERT_TRUE(stopper.ok());
  Result<Frame> ack = stopper->Call(MsgType::kShutdownRequest, "");
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->type, MsgType::kShutdownResponse);
  // Every admitted request still gets its real response.
  for (int i = 0; i < kBurst; ++i) {
    Result<Frame> frame = pipeline->ReadFrame(10.0);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->type, MsgType::kServeResponse);
  }
  EXPECT_TRUE(fx.server->WaitForShutdown(10.0));
  EXPECT_EQ(fx.server->stats().drain_expired, 0u);
  fx.server->Stop();
}

// Drain bounds: with dispatch disabled the queue can never empty, so the
// drain deadline must fail every stuck request with a typed kUnavailable —
// and a request arriving mid-drain is rejected the same way instead of
// extending the drain. Nobody hangs on a dying server.
TEST(NetServerTest, DrainDeadlineFailsStuckAndMidDrainRequestsTyped) {
  NetServerOptions net_options;
  net_options.max_batch = 0;  // nothing ever dispatches: the queue is stuck
  net_options.drain_deadline_seconds = 0.5;
  net_options.retry_after_micros = 2500;
  Fixture fx(/*k=*/10, net_options);
  Result<NetClient> pipeline = NetClient::Connect(fx.server->port());
  ASSERT_TRUE(pipeline.ok());
  Result<NetClient> latecomer = NetClient::Connect(fx.server->port());
  ASSERT_TRUE(latecomer.ok());
  const auto& row = fx.db.row(0);
  const std::string payload =
      EncodeServiceRequest({row.user, row.location, {{"poi", "rest"}}});
  const int kBurst = 8;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(pipeline->SendFrame(MsgType::kServeRequest, payload).ok());
  }
  while (fx.server->stats().frames_decoded < static_cast<uint64_t>(kBurst)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Result<NetClient> stopper = NetClient::Connect(fx.server->port());
  ASSERT_TRUE(stopper.ok());
  Result<Frame> ack = stopper->Call(MsgType::kShutdownRequest, "");
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->type, MsgType::kShutdownResponse);
  // stopping is set before the ack goes out, so this frame is decoded
  // mid-drain and must be rejected typed rather than queued.
  ASSERT_TRUE(latecomer->SendFrame(MsgType::kServeRequest, payload).ok());
  Result<Frame> turned_away = latecomer->ReadFrame(10.0);
  ASSERT_TRUE(turned_away.ok()) << turned_away.status().ToString();
  ASSERT_EQ(turned_away->type, MsgType::kError);
  Result<ErrorMsg> turned_away_msg = DecodeError(turned_away->payload);
  ASSERT_TRUE(turned_away_msg.ok());
  EXPECT_EQ(turned_away_msg->code, StatusCode::kUnavailable);
  // At the deadline, every stuck request is answered kUnavailable with the
  // retry hint — not silently dropped with the loop.
  for (int i = 0; i < kBurst; ++i) {
    Result<Frame> frame = pipeline->ReadFrame(10.0);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_EQ(frame->type, MsgType::kError);
    Result<ErrorMsg> msg = DecodeError(frame->payload);
    ASSERT_TRUE(msg.ok());
    EXPECT_EQ(msg->code, StatusCode::kUnavailable);
    EXPECT_EQ(msg->retry_after_micros, 2500u);
  }
  EXPECT_TRUE(fx.server->WaitForShutdown(10.0));
  const NetServer::Stats stats = fx.server->stats();
  EXPECT_EQ(stats.drain_expired, static_cast<uint64_t>(kBurst));
  EXPECT_GE(stats.drain_rejected, 1u);
  fx.server->Stop();
}

TEST(NetServerTest, NegativeDrainDeadlineIsRejected) {
  Fixture fx;
  NetServerOptions bad;
  bad.drain_deadline_seconds = -1.0;
  EXPECT_FALSE(NetServer::Start(fx.csp.get(), bad).ok());
  fx.server->Stop();
}

// Chaos: all three net/* fault points armed at once. Latency and
// availability may suffer (drops, torn writes, one-byte reads) but every
// answer that does arrive must still be k-anonymous, and the policy behind
// the server must stay anonymous throughout.
TEST(NetServerTest, NetFaultsNeverWeakenAnonymity) {
  fault::FaultPlan plan;
  fault::FaultPointConfig slow{std::string(fault::kNetSlowRead)};
  slow.probability = 0.3;
  fault::FaultPointConfig torn{std::string(fault::kNetTornWrite)};
  torn.probability = 0.3;
  fault::FaultPointConfig drop{std::string(fault::kNetConnDrop)};
  drop.probability = 0.05;
  plan.points = {slow, torn, drop};
  fault::FaultInjector::Global().Arm(plan, 2010);

  Fixture fx(/*k=*/10);
  const uint16_t port = fx.server->port();
  const int k = 10;
  std::atomic<int> verify_failures{0};
  std::atomic<int> served{0};
  // Availability may suffer under faults: only a serve response that
  // arrives is checked.
  const auto verify = [&](const Result<Frame>& frame,
                          const ServiceRequest& sr) {
    if (!frame.ok() || frame->type != MsgType::kServeResponse) return;
    Result<ServeResponseMsg> msg = DecodeServeResponse(frame->payload);
    if (!msg.ok()) {
      verify_failures.fetch_add(1);
      return;
    }
    const Rect cloak{msg->cloak_x1, msg->cloak_y1, msg->cloak_x2,
                     msg->cloak_y2};
    if (msg->group_size < static_cast<uint64_t>(k) ||
        !cloak.Contains(sr.location)) {
      verify_failures.fetch_add(1);
    } else {
      served.fetch_add(1);
    }
  };
  std::vector<std::thread> clients;
  for (size_t c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < 40; ++i) {
        // Reconnect per request: conn_drop kills connections at will.
        Result<NetClient> client = NetClient::Connect(port, 10.0);
        if (!client.ok()) continue;
        const auto& row = fx.db.row((c * 40 + i) % fx.db.size());
        const ServiceRequest sr{row.user, row.location, {{"poi", "rest"}}};
        verify(client->Call(MsgType::kServeRequest, EncodeServiceRequest(sr),
                            10.0),
               sr);
      }
      // Pipelined bursts: several frames per server buffer, so torn writes
      // and drops hit multi-frame flushes. The i-th frame answers the i-th
      // request of its burst until the connection dies.
      for (int burst = 0; burst < 10; ++burst) {
        Result<NetClient> client = NetClient::Connect(port, 10.0);
        if (!client.ok()) continue;
        std::vector<ServiceRequest> requests;
        std::string bytes;
        for (int i = 0; i < 8; ++i) {
          const auto& row = fx.db.row((c * 97 + burst * 8 + i) % fx.db.size());
          requests.push_back({row.user, row.location, {{"poi", "rest"}}});
          bytes += EncodeFrame(MsgType::kServeRequest,
                               EncodeServiceRequest(requests.back()));
        }
        if (::send(client->fd(), bytes.data(), bytes.size(), MSG_NOSIGNAL) !=
            static_cast<ssize_t>(bytes.size())) {
          continue;
        }
        for (const ServiceRequest& sr : requests) {
          Result<Frame> frame = client->ReadFrame(10.0);
          if (!frame.ok()) break;  // dropped: the rest never arrives
          verify(frame, sr);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  // Stopped before the fault counts are read, so no fire lands in between.
  fx.server->Stop();
  const fault::FaultInjector& injector = fault::FaultInjector::Global();
  const uint64_t fires = injector.fires(fault::kNetSlowRead) +
                         injector.fires(fault::kNetTornWrite) +
                         injector.fires(fault::kNetConnDrop);
  fault::FaultInjector::Global().Disarm();

  EXPECT_EQ(verify_failures.load(), 0);
  EXPECT_GT(served.load(), 0);  // the server still makes progress
  EXPECT_GT(fx.server->stats().faults_injected, 0u);
  EXPECT_EQ(fx.server->stats().faults_injected, fires);
  EXPECT_TRUE(AuditPolicyAware(fx.csp->policy()).Anonymous(k));
}

// ---------------------------------------------------------------------------
// Write path: responses keep request order, and write interest is armed
// only while a send is blocked.

TEST(NetServerWritePathTest, PipelinedBurstKeepsRequestOrder) {
  Fixture fx(/*k=*/10);
  Result<NetClient> client = NetClient::Connect(fx.server->port());
  ASSERT_TRUE(client.ok());
  const int kBurst = 64;
  std::vector<ServiceRequest> requests;
  std::string bytes;
  for (int i = 0; i < kBurst; ++i) {
    const auto& row = fx.db.row((i * 7) % fx.db.size());
    requests.push_back({row.user, row.location, {{"poi", "rest"}}});
    bytes += EncodeFrame(MsgType::kServeRequest,
                         EncodeServiceRequest(requests.back()));
  }
  ASSERT_EQ(::send(client->fd(), bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));

  int64_t last_rid = 0;
  for (const ServiceRequest& sr : requests) {
    Result<Frame> frame = client->ReadFrame(10.0);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_EQ(frame->type, MsgType::kServeResponse);
    Result<ServeResponseMsg> msg = DecodeServeResponse(frame->payload);
    ASSERT_TRUE(msg.ok());
    EXPECT_GT(msg->rid, last_rid) << "responses must keep request order";
    last_rid = msg->rid;
    const Rect cloak{msg->cloak_x1, msg->cloak_y1, msg->cloak_x2,
                     msg->cloak_y2};
    EXPECT_GE(msg->group_size, 10u);
    EXPECT_TRUE(cloak.Contains(sr.location));
  }
  EXPECT_GT(fx.server->stats().write_calls, 0u);
  fx.server->Stop();
}

// net/torn_write on every flush: each flush writes half of what is owed.
// The loop must finish the response on its own, without waiting for an
// epoll event or for another request on the connection.
TEST(NetServerWritePathTest, TornRemaindersGoOutWithoutAnotherRequest) {
  Fixture fx(/*k=*/10);
  struct Disarm {
    ~Disarm() { fault::FaultInjector::Global().Disarm(); }
  } disarm;
  fault::FaultPlan plan;
  plan.points = {fault::FaultPointConfig{std::string(fault::kNetTornWrite)}};
  fault::FaultInjector::Global().Arm(plan, 7);

  Result<NetClient> client = NetClient::Connect(fx.server->port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 3; ++i) {
    const auto& row = fx.db.row(i);
    const ServiceRequest sr{row.user, row.location, {{"poi", "rest"}}};
    Result<Frame> frame = client->Call(MsgType::kServeRequest,
                                       EncodeServiceRequest(sr), 5.0);
    ASSERT_TRUE(frame.ok()) << "request " << i << ": "
                            << frame.status().ToString();
    ASSERT_EQ(frame->type, MsgType::kServeResponse);
    Result<ServeResponseMsg> msg = DecodeServeResponse(frame->payload);
    ASSERT_TRUE(msg.ok());
    EXPECT_GE(msg->group_size, 10u);
  }
  EXPECT_GE(fault::FaultInjector::Global().fires(fault::kNetTornWrite), 3u);
  fx.server->Stop();
}

// Closes the socket when a test returns, also on a failed ASSERT, so the
// server's drain is never left waiting on a peer that stopped reading.
struct ScopedFd {
  ~ScopedFd() {
    if (fd >= 0) ::close(fd);
  }
  int fd = -1;
};

// A blocking loopback connection whose receive buffer is set before
// connect(), so it advertises a small window from the first segment, and
// whose reads give up after `timeout_seconds`. Returns -1 on failure.
int ConnectWithReceiveBuffer(uint16_t port, int rcvbuf,
                             int timeout_seconds) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const timeval timeout{timeout_seconds, 0};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)) != 0 ||
      setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)) !=
          0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& bytes) {
  for (size_t sent = 0; sent < bytes.size();) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, 0);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Blocks until `decoder` yields a frame, reading more from `fd` as needed.
Result<Frame> ReadFrameFrom(int fd, FrameDecoder* decoder) {
  char buf[16 * 1024];
  while (true) {
    Frame frame;
    Status error;
    switch (decoder->Next(&frame, &error)) {
      case FrameDecoder::Poll::kFrame:
        return frame;
      case FrameDecoder::Poll::kError:
        return error;
      case FrameDecoder::Poll::kNeedMore:
        break;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return Status::Unavailable("no frame before the timeout");
    decoder->Feed(buf, static_cast<size_t>(n));
  }
}

TEST(NetServerWritePathTest, WriteInterestIsReleasedAfterTheSocketDrains) {
  Fixture fx(/*k=*/10);
  const ScopedFd conn{ConnectWithReceiveBuffer(
      fx.server->port(), /*rcvbuf=*/4096, /*timeout_seconds=*/10)};
  const int fd = conn.fd;
  ASSERT_GE(fd, 0);
  FrameDecoder decoder;
  const auto& row = fx.db.row(0);
  const std::string request = EncodeFrame(
      MsgType::kServeRequest,
      EncodeServiceRequest({row.user, row.location, {{"poi", "rest"}}}));
  // Every response to this request has the same size (fixed-width fields,
  // same cloak and POIs).
  ASSERT_TRUE(SendAll(fd, request));
  Result<Frame> first = ReadFrameFrom(fd, &decoder);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->type, MsgType::kServeResponse);
  const uint64_t response_bytes = kFrameHeaderBytes + first->payload.size();

  // Pipeline bursts without reading until the server holds responses it
  // cannot write: its socket is full and its write interest armed.
  std::string burst;
  for (int i = 0; i < 256; ++i) burst += request;
  uint64_t requests = 1;
  bool blocked = false;
  while (!blocked && requests < 64 * 1024) {
    ASSERT_TRUE(SendAll(fd, burst));
    requests += 256;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (fx.server->stats().requests_served < requests &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(fx.server->stats().requests_served, requests);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    blocked = fx.server->stats().bytes_written < requests * response_bytes;
  }
  ASSERT_TRUE(blocked) << "the server's socket never filled";

  for (uint64_t i = 1; i < requests; ++i) {
    Result<Frame> frame = ReadFrameFrom(fd, &decoder);
    ASSERT_TRUE(frame.ok()) << "response " << i << ": "
                            << frame.status().ToString();
    ASSERT_EQ(frame->type, MsgType::kServeResponse);
    ASSERT_TRUE(DecodeServeResponse(frame->payload).ok());
  }
  EXPECT_EQ(fx.server->stats().bytes_written, requests * response_bytes);

  // Idle with the connection open: a write interest left armed would wake
  // the loop on every poll and count a worked tick each time.
  const obs::Histogram& lag =
      obs::MetricsRegistry::Global().GetHistogram("net/loop_lag_seconds");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const uint64_t ticks_before = lag.count();
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_LE(lag.count() - ticks_before, 5u);
  fx.server->Stop();
}

// Connections are keyed by id, never by fd. A pipelines a burst and closes
// while most of it is still queued behind max_batch = 1; B, which the
// kernel usually hands A's fd, must get exactly its own two responses, in
// order, and no frame meant for A (A's would be kAnonymizeResponse).
TEST(NetServerTest, ReusedFdGetsOnlyItsOwnResponses) {
  NetServerOptions net_options;
  net_options.max_batch = 1;
  net_options.max_pending = 1 << 16;
  Fixture fx(/*k=*/10, net_options);
  {
    Result<NetClient> a = NetClient::Connect(fx.server->port());
    ASSERT_TRUE(a.ok());
    const auto& row = fx.db.row(0);
    const std::string request =
        EncodeFrame(MsgType::kAnonymizeRequest,
                    EncodeServiceRequest({row.user, row.location, {}}));
    std::string burst;
    for (int i = 0; i < 50000; ++i) burst += request;
    ASSERT_TRUE(SendAll(a->fd(), burst));
  }  // A closes without reading a response
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fx.server->stats().connections_closed < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(fx.server->stats().connections_closed, 1u);

  Result<NetClient> b = NetClient::Connect(fx.server->port());
  ASSERT_TRUE(b.ok());
  const auto& row = fx.db.row(400);
  const ServiceRequest sr{row.user, row.location, {{"poi", "rest"}}};
  ASSERT_TRUE(b->SendFrame(MsgType::kHealthRequest, "").ok());
  ASSERT_TRUE(
      b->SendFrame(MsgType::kServeRequest, EncodeServiceRequest(sr)).ok());

  Result<Frame> health = b->ReadFrame(10.0);
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->type, MsgType::kHealthResponse);
  Result<Frame> served = b->ReadFrame(10.0);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_EQ(served->type, MsgType::kServeResponse);
  Result<ServeResponseMsg> msg = DecodeServeResponse(served->payload);
  ASSERT_TRUE(msg.ok());
  const Rect cloak{msg->cloak_x1, msg->cloak_y1, msg->cloak_x2,
                   msg->cloak_y2};
  EXPECT_TRUE(cloak.Contains(sr.location));
  EXPECT_GE(msg->group_size, 10u);

  Result<Frame> extra = b->ReadFrame(0.3);
  EXPECT_EQ(extra.status().code(), StatusCode::kDeadlineExceeded)
      << "B received a frame it never asked for";
  fx.server->Stop();
}

// ---------------------------------------------------------------------------
// Admin plane: the HTTP telemetry listener sharing the event loop.

NetServerOptions WithAdminPlane() {
  NetServerOptions options;
  options.admin_port = 0;  // pick a free port
  return options;
}

TEST(NetServerAdminTest, MetricsEndpointServesValidPrometheusText) {
  Fixture fx(/*k=*/10, WithAdminPlane());
  ASSERT_GT(fx.server->admin_port(), 0);

  // Put some traffic through the data plane first so the scrape has
  // something to report.
  std::atomic<int> failures{0};
  ServeAndVerify(fx.server->port(), fx.db, 10, 0, 25, &failures);
  ASSERT_EQ(failures.load(), 0);

  Result<HttpResponse> response = HttpGet(fx.server->admin_port(), "/metrics");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->headers.at("content-type"),
            "text/plain; version=0.0.4; charset=utf-8");
  // The registry is process-global (other tests in this binary also serve
  // requests), so assert the family exists rather than an exact value.
  EXPECT_NE(response->body.find("pasa_net_requests_served"),
            std::string::npos);
  EXPECT_NE(response->body.find("# TYPE pasa_net_requests_served counter"),
            std::string::npos);
  const Status format = obs::CheckPrometheusText(response->body);
  EXPECT_TRUE(format.ok()) << format.ToString();
  fx.server->Stop();
}

TEST(NetServerAdminTest, HealthzSloAndVarsAnswer) {
  Fixture fx(/*k=*/10, WithAdminPlane());
  const uint16_t admin = fx.server->admin_port();

  Result<HttpResponse> health = HttpGet(admin, "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(health->body.rfind("ok ", 0), 0u) << health->body;

  Result<HttpResponse> slo = HttpGet(admin, "/slo");
  ASSERT_TRUE(slo.ok());
  EXPECT_EQ(slo->status, 200);
  EXPECT_FALSE(slo->body.empty());

  Result<HttpResponse> vars = HttpGet(admin, "/vars");
  ASSERT_TRUE(vars.ok());
  EXPECT_EQ(vars->status, 200);
  EXPECT_EQ(vars->headers.at("content-type"), "application/json");
  EXPECT_EQ(vars->body.front(), '{');

  const NetServer::Stats stats = fx.server->stats();
  EXPECT_GE(stats.admin_connections, 3u);
  EXPECT_GE(stats.admin_requests, 3u);
  fx.server->Stop();
}

TEST(NetServerAdminTest, HealthzReportsStateUptimeAndConnections) {
  Fixture fx(/*k=*/10, WithAdminPlane());
  const uint16_t admin = fx.server->admin_port();

  Result<HttpResponse> health = HttpGet(admin, "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
  // The liveness contract stays "ok ..." (ci.sh greps ^ok), now followed
  // by machine-readable drain state, uptime and connection gauges.
  EXPECT_EQ(health->body.rfind("ok ", 0), 0u) << health->body;
  EXPECT_NE(health->body.find("state=serving"), std::string::npos)
      << health->body;
  EXPECT_NE(health->body.find("uptime_seconds="), std::string::npos)
      << health->body;
  EXPECT_NE(health->body.find("queue="), std::string::npos) << health->body;
  EXPECT_NE(health->body.find("connections="), std::string::npos)
      << health->body;
  fx.server->Stop();
}

TEST(NetServerAdminTest, MemoryEndpointReportsSubsystemFootprints) {
  Fixture fx(/*k=*/10, WithAdminPlane());
  const uint16_t admin = fx.server->admin_port();

  // Serve traffic first so the answer cache and buffers hold bytes.
  std::atomic<int> failures{0};
  ServeAndVerify(fx.server->port(), fx.db, 10, 0, 25, &failures);
  ASSERT_EQ(failures.load(), 0);

  Result<HttpResponse> response = HttpGet(admin, "/memory");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->status, 200);
  EXPECT_EQ(response->headers.at("content-type"), "application/json");
  const Result<obs::json::Value> doc = obs::json::Parse(response->body);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const obs::json::Value* total = doc->Find("total_bytes");
  ASSERT_NE(total, nullptr);
  EXPECT_GT(total->number(), 0.0);
  ASSERT_NE(doc->Find("users"), nullptr);
  ASSERT_NE(doc->Find("bytes_per_user"), nullptr);
  const obs::json::Value* subsystems = doc->Find("subsystems");
  ASSERT_NE(subsystems, nullptr);
  ASSERT_TRUE(subsystems->is_object());
  // The accounting convention spans the whole serving stack: at least the
  // CSP structures, the LBS cache/index, the obs rings and the net plane.
  EXPECT_GE(subsystems->object().size(), 8u);
  for (const char* name :
       {"csp/snapshot", "csp/policy_tree", "csp/config_matrix", "csp/policy",
        "csp/user_index", "lbs/answer_cache", "lbs/poi_index",
        "net/conn_buffers", "net/pending_queue"}) {
    EXPECT_NE(subsystems->Find(name), nullptr) << name;
  }
  // The dominant resident structures must report non-zero footprints.
  for (const char* name : {"csp/snapshot", "csp/policy_tree",
                           "lbs/poi_index"}) {
    const obs::json::Value* entry = subsystems->Find(name);
    ASSERT_NE(entry, nullptr) << name;
    EXPECT_GT(entry->number(), 0.0) << name;
  }

  // The same accounting reaches Prometheus as a labeled gauge family.
  Result<HttpResponse> metrics = HttpGet(admin, "/metrics");
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->body.find("pasa_mem_bytes{subsystem=\"csp/snapshot\"}"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("pasa_mem_total_bytes"), std::string::npos);
  const Status format = obs::CheckPrometheusText(metrics->body);
  EXPECT_TRUE(format.ok()) << format.ToString();
  fx.server->Stop();
}

// /vars derives the mem/* gauges at read time like /metrics and /memory,
// so even a fresh server's first scrape carries current byte counts.
TEST(NetServerAdminTest, VarsFirstScrapeCarriesMemoryGauges) {
  Fixture fx(/*k=*/10, WithAdminPlane());
  obs::MetricsRegistry::Global().Reset();
  obs::MemoryAccountant::Global().Reset();

  Result<HttpResponse> response = HttpGet(fx.server->admin_port(), "/vars");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->status, 200);
  const Result<obs::json::Value> doc = obs::json::Parse(response->body);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const obs::json::Value* gauges = doc->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  const obs::json::Value* total = gauges->Find("mem/total_bytes");
  ASSERT_NE(total, nullptr) << response->body;
  EXPECT_GT(total->number(), 0.0);
  const obs::json::Value* snapshot = gauges->Find(
      obs::LabeledName("mem/bytes", {{"subsystem", "csp/snapshot"}}));
  ASSERT_NE(snapshot, nullptr) << response->body;
  EXPECT_GT(snapshot->number(), 0.0);
  fx.server->Stop();
}

TEST(NetServerAdminTest, LoopSaturationMetricsVisibleAfterTraffic) {
  Fixture fx(/*k=*/10, WithAdminPlane());
  const uint16_t admin = fx.server->admin_port();

  std::atomic<int> failures{0};
  ServeAndVerify(fx.server->port(), fx.db, 10, 0, 25, &failures);
  ASSERT_EQ(failures.load(), 0);

  Result<HttpResponse> metrics = HttpGet(admin, "/metrics");
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics->status, 200);
  // Event-loop saturation telemetry: per-tick busy time, queue depth at
  // tick end, and per-request queue wait.
  EXPECT_NE(metrics->body.find("pasa_net_loop_lag_seconds_count"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("pasa_net_queue_depth"), std::string::npos);
  EXPECT_NE(metrics->body.find("pasa_net_queue_wait_seconds_count"),
            std::string::npos);

  // The loop-lag histogram saw at least one worked tick (the requests
  // above), and every observation is a sane sub-second busy time.
  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global()
                                            .Snapshot();
  const auto it = snapshot.histograms.find("net/loop_lag_seconds");
  ASSERT_NE(it, snapshot.histograms.end());
  EXPECT_GT(it->second.count, 0u);
  fx.server->Stop();
}

// The GET /slo row of `name` ("| name | kind | ... |"), or "" when absent.
std::string SloRow(const std::string& table, const std::string& name) {
  const size_t at = table.find("| " + name + " ");
  if (at == std::string::npos) return "";
  return table.substr(at, table.find('\n', at) - at);
}

// `name`'s state as GET /metrics and --metrics-out export it now.
obs::SloState ExportedSloState(const std::string& name) {
  for (const obs::SloState& state : obs::FullSnapshot().slos) {
    if (state.name == name) return state;
  }
  ADD_FAILURE() << "objective " << name << " not exported";
  return {};
}

// The SLO windows slide over the steady clock, so a burn alert clears
// once its bad events age out, even while no request arrives.
TEST(NetServerAdminTest, IdleServerClearsItsAvailabilityAlert) {
  obs::SloTracker& slo = obs::SloTracker::Global();
  slo.Configure({{.name = obs::kSloAvailability,
                  .kind = obs::SloObjective::Kind::kAvailability,
                  .target = 0.999,
                  .fast_window_micros = 100'000,
                  .slow_window_micros = 200'000}});
  slo.Enable();
  fault::FaultPlan plan;
  fault::FaultPointConfig error{std::string(fault::kLbsError)};
  error.probability = 1.0;
  plan.points = {error};
  fault::FaultInjector::Global().Arm(plan, 11);

  Fixture fx(/*k=*/10, WithAdminPlane());
  Result<NetClient> client = NetClient::Connect(fx.server->port());
  ASSERT_TRUE(client.ok());
  for (size_t i = 0; i < 20; ++i) {
    const auto& row = fx.db.row(i);
    const ServiceRequest sr{row.user, row.location, {{"poi", "rest"}}};
    Result<Frame> frame =
        client->Call(MsgType::kServeRequest, EncodeServiceRequest(sr));
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame->type, MsgType::kError);
  }
  fault::FaultInjector::Global().Disarm();
  EXPECT_GE(obs::MetricsRegistry::Global()
                .GetCounter("slo/alerts_fired")
                .value(),
            1u);

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  Result<HttpResponse> idle = HttpGet(fx.server->admin_port(), "/slo");
  ASSERT_TRUE(idle.ok());
  const std::string row = SloRow(idle->body, obs::kSloAvailability);
  ASSERT_FALSE(row.empty()) << idle->body;
  EXPECT_EQ(row.find("ALERT"), std::string::npos) << row;
  const obs::SloState state = ExportedSloState(obs::kSloAvailability);
  EXPECT_FALSE(state.alerting);
  EXPECT_GE(state.alerts_fired, 1u);
  EXPECT_GE(state.alerts_resolved, 1u);
  fx.server->Stop();
  slo.Disable();
  slo.Configure({});
}

// Loop saturation is recorded per worked tick: an idle loop records
// nothing, and its alert must still clear as the window slides.
TEST(NetServerAdminTest, IdleServerClearsItsLoopSaturationAlert) {
  obs::SloTracker& slo = obs::SloTracker::Global();
  // Every worked tick is "saturated" under a 1 ns threshold.
  slo.Configure({{.name = kSloNetLoopSaturation,
                  .kind = obs::SloObjective::Kind::kLatency,
                  .target = 0.99,
                  .latency_threshold_seconds = 1e-9,
                  .fast_window_micros = 100'000,
                  .slow_window_micros = 200'000}});
  slo.Enable();
  Fixture fx(/*k=*/10);
  std::atomic<int> failures{0};
  ServeAndVerify(fx.server->port(), fx.db, 10, 0, 25, &failures);
  ASSERT_EQ(failures.load(), 0);

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const obs::SloState state = ExportedSloState(kSloNetLoopSaturation);
  EXPECT_GE(state.alerts_fired, 1u);
  EXPECT_FALSE(state.alerting);
  EXPECT_GE(state.alerts_resolved, 1u);
  fx.server->Stop();
  slo.Disable();
  slo.Configure({});
}

// The folded weight of `frames` ("a;b;c") in a /profile body, or -1.
long long FoldedWeight(const std::string& body, const std::string& frames) {
  const std::string lines = "\n" + body;
  const std::string needle = "\n" + frames + " ";
  const size_t at = lines.find(needle);
  if (at == std::string::npos) return -1;
  return std::atoll(lines.c_str() + at + needle.size());
}

TEST(NetServerAdminTest, ProfileEndpointFoldsSpanSelfTimes) {
  Fixture fx(/*k=*/10, WithAdminPlane());
  const uint16_t admin = fx.server->admin_port();
  obs::MetricsRegistry::Global().Reset();

  // `work` holds a nested child and a kRoot-anchored span; both close
  // inside it on this thread, so both come off its self time.
  {
    obs::ScopedSpan work("admin_test/work", obs::ScopedSpan::kRoot);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      obs::ScopedSpan child("child");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    {
      obs::ScopedSpan other("other", obs::ScopedSpan::kRoot);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  Result<HttpResponse> response = HttpGet(admin, "/profile");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  const std::string& body = response->body;
  const long long work = FoldedWeight(body, "admin_test;work");
  const long long child = FoldedWeight(body, "admin_test;work;child");
  const long long other = FoldedWeight(body, "other");
  EXPECT_GT(work, 0) << body;
  EXPECT_GE(child, 20'000) << body;
  EXPECT_GE(other, 20'000) << body;

  // work's weight is its total minus both children's, not its total.
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  const double expected_self =
      snapshot.spans.at("admin_test/work").total_seconds -
      snapshot.spans.at("admin_test/work/child").total_seconds -
      snapshot.spans.at("other").total_seconds;
  EXPECT_NEAR(static_cast<double>(work), expected_self * 1e6, 1.0) << body;
  EXPECT_LT(work, child) << body;
  EXPECT_LT(work, other) << body;
  fx.server->Stop();
}

TEST(NetServerAdminTest, UnknownPathBadMethodAndGarbageGetHttpErrors) {
  Fixture fx(/*k=*/10, WithAdminPlane());
  const uint16_t admin = fx.server->admin_port();

  Result<HttpResponse> missing = HttpGet(admin, "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);

  Result<HttpResponse> post = HttpTransact(
      admin, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(post->status, 405);

  Result<HttpResponse> garbage =
      HttpTransact(admin, "\xFF\xFE not http at all\r\n\r\n");
  ASSERT_TRUE(garbage.ok());
  EXPECT_EQ(garbage->status, 400);

  // HEAD answers with headers only but a truthful Content-Length.
  Result<HttpResponse> head = HttpTransact(
      admin, "HEAD /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head->status, 200);
  EXPECT_GT(std::stoul(head->headers.at("content-length")), 0u);
  fx.server->Stop();
}

TEST(NetServerAdminTest, AdminPlaneBypassesConnectionCapUnderOverload) {
  // max_connections = 0: every data-plane connection is rejected outright.
  NetServerOptions options = WithAdminPlane();
  options.max_connections = 0;
  Fixture fx(/*k=*/10, options);

  // A data-plane client is accepted and immediately closed: its call can
  // never succeed.
  Result<NetClient> client = NetClient::Connect(fx.server->port(), 5.0);
  if (client.ok()) {
    Result<Frame> frame = client->Call(MsgType::kHealthRequest, "", 5.0);
    EXPECT_FALSE(frame.ok());
  }

  // The operator plane must stay reachable exactly when the serving plane
  // is saturated.
  Result<HttpResponse> health = HttpGet(fx.server->admin_port(), "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
  fx.server->Stop();
}

// ---------------------------------------------------------------------------
// Distributed tracing: wire v2 compatibility, trace adoption, /trace, and
// Prometheus exemplars.

// A v1 client (no flags word, no trace extension) must round-trip against
// a v2 server unchanged.
TEST(NetServerTraceTest, Version1ClientServedByVersion2Server) {
  Fixture fx(/*k=*/10);
  Result<NetClient> client = NetClient::Connect(fx.server->port());
  ASSERT_TRUE(client.ok());

  const auto& row = fx.db.row(2);
  const ServiceRequest sr{row.user, row.location, {{"poi", "rest"}}};
  std::string frame =
      EncodeFrame(MsgType::kServeRequest, EncodeServiceRequest(sr));
  frame[4] = 0x01;  // rewrite the version byte: a legacy v1 sender
  const ssize_t wrote = ::send(client->fd(), frame.data(), frame.size(), 0);
  ASSERT_EQ(wrote, static_cast<ssize_t>(frame.size()));

  Result<Frame> reply = client->ReadFrame(10.0);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, MsgType::kServeResponse);
  Result<ServeResponseMsg> msg = DecodeServeResponse(reply->payload);
  ASSERT_TRUE(msg.ok());
  EXPECT_GE(msg->group_size, 10u);
  fx.server->Stop();
}

// A wire-propagated trace context is adopted by the server: the /trace
// endpoint reports the client-chosen trace id with the server's span tree.
TEST(NetServerTraceTest, TraceEndpointReportsAdoptedTraceWithSpans) {
  Fixture fx(/*k=*/10, WithAdminPlane());
  obs::TailTraceRing::Global().Reset();
  Result<NetClient> client = NetClient::Connect(fx.server->port());
  ASSERT_TRUE(client.ok());

  const uint64_t trace_id = obs::NewTraceId();
  const WireTraceContext wire{trace_id, /*parent_span_id=*/77, true};
  const auto& row = fx.db.row(5);
  const ServiceRequest sr{row.user, row.location, {{"poi", "rest"}}};
  Result<Frame> reply = client->Call(MsgType::kServeRequest,
                                     EncodeServiceRequest(sr), wire, 10.0);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, MsgType::kServeResponse);

  Result<HttpResponse> response = HttpGet(fx.server->admin_port(), "/trace");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->headers.at("content-type"), "application/json");
  Result<obs::json::Value> doc = obs::json::Parse(response->body);
  ASSERT_TRUE(doc.ok()) << response->body;
  const obs::json::Value* slowest = doc->Find("slowest");
  ASSERT_NE(slowest, nullptr);
  const obs::json::Value* ours = nullptr;
  for (const obs::json::Value& trace : slowest->array()) {
    if (trace.Find("trace_id")->str() == obs::TraceIdHex(trace_id)) {
      ours = &trace;
    }
  }
  ASSERT_NE(ours, nullptr) << response->body;
  EXPECT_EQ(ours->Find("outcome")->str(), "served");
  EXPECT_GT(ours->Find("total_seconds")->number(), 0.0);
  // The span tree must contain the dispatch root parented under the
  // wire-carried span, and the downstream cloak/LBS hops.
  const obs::json::Value* spans = ours->Find("spans");
  ASSERT_NE(spans, nullptr);
  bool saw_dispatch = false, saw_csp = false, saw_lbs = false;
  for (const obs::json::Value& span : spans->array()) {
    const std::string& path = span.Find("path")->str();
    if (path == "net/dispatch") {
      EXPECT_EQ(span.Find("parent_span_id")->str(), obs::TraceIdHex(77));
      saw_dispatch = true;
    }
    if (path.find("csp/handle_request") != std::string::npos) saw_csp = true;
    if (path.find("lbs/serve") != std::string::npos) saw_lbs = true;
  }
  EXPECT_TRUE(saw_dispatch) << response->body;
  EXPECT_TRUE(saw_csp) << response->body;
  EXPECT_TRUE(saw_lbs) << response->body;
  fx.server->Stop();
}

// Untraced requests still land in the tail ring: the server originates a
// trace id of its own when the ring is armed.
TEST(NetServerTraceTest, ServerOriginatesTraceForUntracedRequests) {
  Fixture fx(/*k=*/10, WithAdminPlane());
  obs::TailTraceRing::Global().Reset();
  std::atomic<int> failures{0};
  ServeAndVerify(fx.server->port(), fx.db, 10, 0, 3, &failures);
  ASSERT_EQ(failures.load(), 0);

  Result<HttpResponse> response = HttpGet(fx.server->admin_port(), "/trace");
  ASSERT_TRUE(response.ok());
  Result<obs::json::Value> doc = obs::json::Parse(response->body);
  ASSERT_TRUE(doc.ok());
  const obs::json::Value* slowest = doc->Find("slowest");
  ASSERT_NE(slowest, nullptr);
  ASSERT_FALSE(slowest->array().empty()) << response->body;
  EXPECT_NE(slowest->array()[0].Find("trace_id")->str(),
            obs::TraceIdHex(0));
  fx.server->Stop();
}

// With --exemplars the Prometheus scrape carries OpenMetrics-style
// exemplars on histogram buckets, and stays format-conformant.
TEST(NetServerTraceTest, MetricsCarryExemplarsWhenEnabled) {
  NetServerOptions options = WithAdminPlane();
  options.exemplars = true;
  Fixture fx(/*k=*/10, options);
  // The registry is process-global and exemplars keep the largest value
  // per bucket: clear earlier tests' observations so ours wins its bucket.
  obs::MetricsRegistry::Global().Reset();
  Result<NetClient> client = NetClient::Connect(fx.server->port());
  ASSERT_TRUE(client.ok());

  const uint64_t trace_id = obs::NewTraceId();
  const WireTraceContext wire{trace_id, 0, true};
  const auto& row = fx.db.row(7);
  const ServiceRequest sr{row.user, row.location, {{"poi", "rest"}}};
  ASSERT_TRUE(client
                  ->Call(MsgType::kServeRequest, EncodeServiceRequest(sr),
                         wire, 10.0)
                  .ok());

  Result<HttpResponse> response = HttpGet(fx.server->admin_port(), "/metrics");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  const std::string needle =
      "# {trace_id=\"" + obs::TraceIdHex(trace_id) + "\"}";
  EXPECT_NE(response->body.find(needle), std::string::npos);
  const Status format = obs::CheckPrometheusText(response->body);
  EXPECT_TRUE(format.ok()) << format.ToString();
  fx.server->Stop();
}

}  // namespace
}  // namespace net
}  // namespace pasa
