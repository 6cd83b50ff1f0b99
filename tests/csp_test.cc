// End-to-end tests for the trusted-CSP server: request handling, snapshot
// advancement (incremental vs rebuild), cache shielding, and privacy audits.

#include <gtest/gtest.h>

#include "attack/auditor.h"
#include "csp/server.h"
#include "fault/injector.h"
#include "obs/mem.h"
#include "obs/metrics.h"
#include "workload/bay_area.h"
#include "workload/movement.h"
#include "workload/requests.h"

namespace pasa {
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
  const std::vector<std::string> categories = {"rest", "groc", "cinema",
                                               "gas", "hospital"};
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

TEST(CspServerTest, ServesValidRequestsRejectsStaleOnes) {
  const BayAreaGenerator gen(SmallBay());
  LocationDatabase db = gen.Generate(800);
  CspOptions options;
  options.k = 10;
  Result<CspServer> csp = CspServer::Start(db, gen.extent(),
                                           SomePois(gen.extent(), 500),
                                           options);
  ASSERT_TRUE(csp.ok()) << csp.status().ToString();

  RequestGenerator requests(3);
  for (const ServiceRequest& sr : requests.Draw(db, 100)) {
    Result<LbsAnswer> answer = csp->HandleRequest(sr);
    ASSERT_TRUE(answer.ok());
    EXPECT_LE(answer->pois.size(), options.answers_per_request);
    EXPECT_FALSE(answer->degraded);
  }
  EXPECT_EQ(csp->stats().requests_served, 100u);

  // Unknown user and stale location are rejected.
  EXPECT_FALSE(csp->HandleRequest(ServiceRequest{999999, {0, 0}, {}}).ok());
  const Point actual = db.row(0).location;
  EXPECT_FALSE(csp->HandleRequest(
                      ServiceRequest{db.row(0).user,
                                     {actual.x + 1, actual.y}, {}})
                   .ok());
  EXPECT_EQ(csp->stats().requests_rejected, 2u);
}

TEST(CspServerTest, CacheShieldsTheLbsFromDuplicates) {
  const BayAreaGenerator gen(SmallBay());
  LocationDatabase db = gen.Generate(500);
  CspOptions options;
  options.k = 10;
  Result<CspServer> csp = CspServer::Start(db, gen.extent(),
                                           SomePois(gen.extent(), 300),
                                           options);
  ASSERT_TRUE(csp.ok());

  // The same user asks the same thing 20 times: the LBS sees one request.
  const ServiceRequest sr{db.row(0).user, db.row(0).location,
                          {{"poi", "rest"}}};
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(csp->HandleRequest(sr).ok());
  }
  EXPECT_EQ(csp->stats().requests_served, 20u);
  EXPECT_EQ(csp->lbs_requests_seen(), 1u);
  // Billing still accounts for all 20.
  EXPECT_EQ(csp->FlushAnswerCache(), 20u);
}

TEST(CspServerTest, AnswerCacheCountersMatchServerAccounting) {
  obs::Configure(obs::ObsOptions{.enabled = true});
  obs::MetricsRegistry::Global().Reset();
  const BayAreaGenerator gen(SmallBay());
  LocationDatabase db = gen.Generate(500);
  CspOptions options;
  options.k = 10;
  Result<CspServer> csp = CspServer::Start(db, gen.extent(),
                                           SomePois(gen.extent(), 300),
                                           options);
  ASSERT_TRUE(csp.ok());

  // A mix of repeats (same user, same query) and distinct queries.
  const ServiceRequest repeated{db.row(0).user, db.row(0).location,
                                {{"poi", "rest"}}};
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(csp->HandleRequest(repeated).ok());
  RequestGenerator requests(11);
  for (const ServiceRequest& sr : requests.Draw(db, 50)) {
    ASSERT_TRUE(csp->HandleRequest(sr).ok());
  }

  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  ASSERT_EQ(snapshot.counters.count("lbs/answer_cache/hits"), 1u);
  ASSERT_EQ(snapshot.counters.count("lbs/answer_cache/misses"), 1u);
  const uint64_t hits = snapshot.counters.at("lbs/answer_cache/hits");
  const uint64_t misses = snapshot.counters.at("lbs/answer_cache/misses");
  // Every cache miss is exactly one request the LBS saw, and every served
  // request was either a hit or a miss.
  EXPECT_EQ(misses, csp->lbs_requests_seen());
  EXPECT_EQ(hits + misses, csp->stats().requests_served);
  EXPECT_EQ(csp->stats().requests_served, 60u);
  EXPECT_GE(hits, 9u);  // the 9 repeats after the first are hits at minimum
  EXPECT_EQ(snapshot.counters.at("csp/requests_served"),
            csp->stats().requests_served);
}

// A stale-origin move, which an advance must quarantine, for a row that
// `moves` leaves alone.
UserMove StaleMoveBeside(const std::vector<UserMove>& moves,
                         const LocationDatabase& snapshot) {
  std::vector<bool> moving(snapshot.size(), false);
  for (const UserMove& move : moves) moving[move.row] = true;
  uint32_t row = 0;
  while (moving[row]) ++row;
  const Point at = snapshot.row(row).location;
  return UserMove{row, Point{at.x + 1, at.y}, Point{at.x + 1, at.y}};
}

// Advances `csp` by `moves` plus one stale move and checks where the rows
// landed: every accepted move's row at its `to`, the quarantined row where
// it was.
Result<SnapshotReport> AdvanceAndExpectRowsPlaced(
    CspServer& csp, const std::vector<UserMove>& moves) {
  const UserMove stale = StaleMoveBeside(moves, csp.snapshot());
  const Point stale_at = csp.snapshot().row(stale.row).location;
  std::vector<UserMove> batch = moves;
  batch.push_back(stale);
  Result<SnapshotReport> report = csp.AdvanceSnapshot(batch);
  if (!report.ok()) return report;
  EXPECT_EQ(report->moves_applied, moves.size());
  EXPECT_EQ(report->moves_quarantined, 1u);
  for (const UserMove& move : moves) {
    EXPECT_EQ(csp.snapshot().row(move.row).location, move.to)
        << "row " << move.row;
  }
  EXPECT_EQ(csp.snapshot().row(stale.row).location, stale_at);
  return report;
}

TEST(CspServerTest, SnapshotAdvanceChoosesIncrementalOrRebuild) {
  const BayAreaGenerator gen(SmallBay());
  LocationDatabase db = gen.Generate(1000);
  CspOptions options;
  options.k = 10;
  options.rebuild_fraction = 0.05;
  Result<CspServer> csp = CspServer::Start(db, gen.extent(),
                                           SomePois(gen.extent(), 100),
                                           options);
  ASSERT_TRUE(csp.ok());

  // 1% movers: incremental path.
  MovementOptions small_move;
  small_move.moving_fraction = 0.01;
  small_move.max_distance = 50.0;
  small_move.seed = 1;
  const std::vector<UserMove> few = DrawMoves(csp->snapshot(), gen.extent(),
                                              small_move);
  Result<SnapshotReport> r1 = AdvanceAndExpectRowsPlaced(*csp, few);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_FALSE(r1->rebuilt);
  EXPECT_GT(r1->dp_rows_repaired, 0u);

  // 20% movers: rebuild path.
  MovementOptions big_move;
  big_move.moving_fraction = 0.20;
  big_move.max_distance = 50.0;
  big_move.seed = 2;
  const std::vector<UserMove> many = DrawMoves(csp->snapshot(), gen.extent(),
                                               big_move);
  Result<SnapshotReport> r2 = AdvanceAndExpectRowsPlaced(*csp, many);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->rebuilt);
  EXPECT_EQ(csp->stats().rebuilds, 1u);
  EXPECT_EQ(csp->stats().incremental_updates, 1u);

  // After both advances the policy stays valid, optimal and k-anonymous.
  EXPECT_TRUE(csp->policy().IsMasking(csp->snapshot()));
  EXPECT_TRUE(AuditPolicyAware(csp->policy()).Anonymous(options.k));
  Result<IncrementalAnonymizer> fresh = IncrementalAnonymizer::Build(
      csp->snapshot(), gen.extent(), options.k, options.dp);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(csp->policy_cost(), *fresh->OptimalCost());

  // Requests against the advanced snapshot are served from the new policy.
  const UserLocation& someone = csp->snapshot().row(42);
  EXPECT_TRUE(csp->HandleRequest(
                     ServiceRequest{someone.user, someone.location, {}})
                  .ok());
}

TEST(CspServerTest, ServedCloaksMatchThePolicyTreeAfterEachAdvance) {
  const BayAreaGenerator gen(SmallBay());
  LocationDatabase db = gen.Generate(1000);
  CspOptions options;
  options.k = 10;
  options.rebuild_fraction = 0.05;
  Result<CspServer> csp = CspServer::Start(db, gen.extent(),
                                           SomePois(gen.extent(), 100),
                                           options);
  ASSERT_TRUE(csp.ok());

  auto expect_cloaks_match = [&](const char* phase) {
    const CloakingTable table = csp->policy();
    const auto groups = table.GroupSizesByRegion();
    const LocationDatabase& snapshot = csp->snapshot();
    ASSERT_EQ(table.size(), snapshot.size()) << phase;
    const std::vector<int32_t>& assignment =
        csp->extracted_policy().assignment;
    ASSERT_EQ(assignment.size(), snapshot.size()) << phase;
    for (size_t row = 0; row < snapshot.size(); ++row) {
      const UserLocation& user = snapshot.row(row);
      uint64_t group_size = 0;
      Result<AnonymizedRequest> ar =
          csp->Cloak(ServiceRequest{user.user, user.location, {}},
                     &group_size);
      ASSERT_TRUE(ar.ok()) << phase << " row " << row;
      EXPECT_EQ(ar->cloak, table.cloak(row)) << phase << " row " << row;
      EXPECT_EQ(ar->cloak,
                csp->tree().node(assignment[row]).region)
          << phase << " row " << row;
      EXPECT_EQ(group_size, groups.at(ar->cloak.ToString()))
          << phase << " row " << row;
    }
  };
  expect_cloaks_match("start");

  MovementOptions movement;
  movement.max_distance = 50.0;
  movement.moving_fraction = 0.01;
  movement.seed = 1;
  Result<SnapshotReport> repair = csp->AdvanceSnapshot(
      DrawMoves(csp->snapshot(), gen.extent(), movement));
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  ASSERT_FALSE(repair->rebuilt);
  expect_cloaks_match("repair");

  movement.moving_fraction = 0.08;
  movement.seed = 2;
  Result<SnapshotReport> rebuild = csp->AdvanceSnapshot(
      DrawMoves(csp->snapshot(), gen.extent(), movement));
  ASSERT_TRUE(rebuild.ok()) << rebuild.status().ToString();
  ASSERT_TRUE(rebuild->rebuilt);
  expect_cloaks_match("rebuild");
}

TEST(CspServerTest, QuarantinesMalformedMovesAndAppliesTheRest) {
  const BayAreaGenerator gen(SmallBay());
  LocationDatabase db = gen.Generate(300);
  CspOptions options;
  options.k = 5;
  Result<CspServer> csp = CspServer::Start(db, gen.extent(),
                                           SomePois(gen.extent(), 10),
                                           options);
  ASSERT_TRUE(csp.ok());

  const Point a = csp->snapshot().row(0).location;
  const Point b = csp->snapshot().row(1).location;
  const std::vector<UserMove> moves = {
      // One good move...
      {1, b, {b.x + 1, b.y}},
      // ...and one of each quarantine reason. None is fatal.
      {static_cast<uint32_t>(csp->snapshot().size() + 7),
       a, {a.x + 1, a.y}},                            // unknown_user
      {0, {a.x + 1, a.y}, a},                         // stale_origin
      {0, a, {gen.extent().origin_x + 2 * gen.extent().side(),
              gen.extent().origin_y}},                // out_of_extent
      {1, b, {b.x + 2, b.y}},                         // duplicate mover
  };
  Result<SnapshotReport> report = csp->AdvanceSnapshot(moves);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->moves_applied, 1u);
  EXPECT_EQ(report->moves_quarantined, 4u);
  EXPECT_EQ(csp->stats().moves_quarantined, 4u);
  EXPECT_EQ(csp->snapshot().row(1).location, (Point{b.x + 1, b.y}));
  // The surviving snapshot still yields a valid k-anonymous policy.
  EXPECT_TRUE(csp->policy().IsMasking(csp->snapshot()));
  EXPECT_TRUE(AuditPolicyAware(csp->policy()).Anonymous(options.k));
}

TEST(CspServerTest, FailedIncrementalRepairFallsBackToRebuild) {
  const BayAreaGenerator gen(SmallBay());
  LocationDatabase db = gen.Generate(1000);
  CspOptions options;
  options.k = 10;
  options.rebuild_fraction = 0.5;  // keep the advance on the incremental path
  Result<CspServer> csp = CspServer::Start(db, gen.extent(),
                                           SomePois(gen.extent(), 10),
                                           options);
  ASSERT_TRUE(csp.ok());

  // Force the incremental repair itself to fail: the server must self-heal
  // by putting every accepted move in place and rebuilding, not fail the
  // advance.
  fault::FaultPlan plan;
  plan.points.push_back({std::string(fault::kSnapshotRepairFail)});
  fault::FaultInjector::Global().Arm(plan, /*seed=*/5);
  MovementOptions movement;
  movement.moving_fraction = 0.01;
  movement.seed = 9;
  const std::vector<UserMove> moves =
      DrawMoves(csp->snapshot(), gen.extent(), movement);
  Result<SnapshotReport> report = AdvanceAndExpectRowsPlaced(*csp, moves);
  fault::FaultInjector::Global().Disarm();

  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->repair_fell_back_to_rebuild);
  EXPECT_TRUE(report->rebuilt);
  EXPECT_EQ(report->dp_rows_repaired, 0u);
  EXPECT_EQ(csp->stats().repair_fallbacks, 1u);
  EXPECT_EQ(csp->stats().rebuilds, 1u);
  EXPECT_EQ(csp->stats().incremental_updates, 0u);

  // The rebuilt policy is exactly the bulk-optimal one for the new snapshot.
  EXPECT_TRUE(csp->policy().IsMasking(csp->snapshot()));
  EXPECT_TRUE(AuditPolicyAware(csp->policy()).Anonymous(options.k));
  Result<IncrementalAnonymizer> fresh = IncrementalAnonymizer::Build(
      csp->snapshot(), gen.extent(), options.k, options.dp);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(csp->policy_cost(), *fresh->OptimalCost());
}

TEST(CspServerTest, RefreshedPolicyEqualsAFullExtraction) {
  // After every kind of advance the served policy is exactly what a full
  // extraction on the engine's tree and matrix yields: after repairs (whose
  // refresh re-walks only what changed), after a repair fallback, after a
  // rebuild and after a repair that follows them.
  const BayAreaGenerator gen(SmallBay());
  CspOptions options;
  options.k = 10;
  options.rebuild_fraction = 0.05;
  Result<CspServer> csp = CspServer::Start(gen.Generate(1500), gen.extent(),
                                           SomePois(gen.extent(), 10),
                                           options);
  ASSERT_TRUE(csp.ok());
  auto expect_full_extraction = [&](const std::string& phase) {
    Result<ExtractedPolicy> full =
        ExtractOptimalPolicy(csp->tree(), csp->matrix(), options.k);
    ASSERT_TRUE(full.ok()) << phase;
    const ExtractedPolicy& served = csp->extracted_policy();
    EXPECT_EQ(served.config.passed_up, full->config.passed_up) << phase;
    EXPECT_EQ(served.assignment, full->assignment) << phase;
    EXPECT_EQ(served.cost, full->cost) << phase;
    const CloakingTable table = csp->policy();
    const CloakingTable want = full->Table(csp->tree());
    ASSERT_EQ(table.size(), want.size()) << phase;
    size_t differing = 0;
    for (size_t row = 0; row < table.size(); ++row) {
      differing += table.cloak(row) == want.cloak(row) ? 0 : 1;
    }
    EXPECT_EQ(differing, 0u) << phase;
  };
  uint64_t seed = 40;
  auto advance = [&](double fraction) {
    MovementOptions movement;
    movement.moving_fraction = fraction;
    movement.max_distance = 80.0;
    movement.seed = ++seed;
    return csp->AdvanceSnapshot(
        DrawMoves(csp->snapshot(), gen.extent(), movement));
  };

  for (int i = 0; i < 3; ++i) {
    Result<SnapshotReport> repair = advance(0.02);
    ASSERT_TRUE(repair.ok()) << repair.status().ToString();
    ASSERT_FALSE(repair->rebuilt);
    expect_full_extraction("repair " + std::to_string(i));
  }

  fault::FaultPlan plan;
  plan.points.push_back({std::string(fault::kSnapshotRepairFail)});
  fault::FaultInjector::Global().Arm(plan, /*seed=*/5);
  Result<SnapshotReport> fallback = advance(0.02);
  fault::FaultInjector::Global().Disarm();
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  ASSERT_TRUE(fallback->repair_fell_back_to_rebuild);
  expect_full_extraction("repair fallback");
  Result<SnapshotReport> after_fallback = advance(0.02);
  ASSERT_TRUE(after_fallback.ok());
  ASSERT_FALSE(after_fallback->rebuilt);
  expect_full_extraction("repair after the fallback");

  Result<SnapshotReport> rebuild = advance(0.10);
  ASSERT_TRUE(rebuild.ok()) << rebuild.status().ToString();
  ASSERT_TRUE(rebuild->rebuilt);
  expect_full_extraction("rebuild");
  Result<SnapshotReport> after_rebuild = advance(0.02);
  ASSERT_TRUE(after_rebuild.ok());
  ASSERT_FALSE(after_rebuild->rebuilt);
  expect_full_extraction("repair after the rebuild");

  // An advance whose every move is quarantined leaves the policy as it was.
  const ExtractedPolicy before = csp->extracted_policy();
  const Point a = csp->snapshot().row(0).location;
  Result<SnapshotReport> quarantined =
      csp->AdvanceSnapshot({UserMove{0, {a.x + 1, a.y}, a}});
  ASSERT_TRUE(quarantined.ok()) << quarantined.status().ToString();
  ASSERT_EQ(quarantined->moves_quarantined, 1u);
  EXPECT_EQ(csp->extracted_policy().config.passed_up,
            before.config.passed_up);
  EXPECT_EQ(csp->extracted_policy().assignment, before.assignment);
  EXPECT_EQ(csp->extracted_policy().cost, before.cost);
  expect_full_extraction("quarantine only");
}

TEST(CspServerTest, CorruptedMoveFeedEndsInQuarantineNotCrash) {
  const BayAreaGenerator gen(SmallBay());
  LocationDatabase db = gen.Generate(500);
  CspOptions options;
  options.k = 5;
  Result<CspServer> csp = CspServer::Start(db, gen.extent(),
                                           SomePois(gen.extent(), 10),
                                           options);
  ASSERT_TRUE(csp.ok());

  // Corrupt every third move at the ingest boundary.
  fault::FaultPlan plan;
  fault::FaultPointConfig corrupt{std::string(fault::kSnapshotCorruptMove)};
  corrupt.every = 3;
  plan.points.push_back(corrupt);
  fault::FaultInjector::Global().Arm(plan, /*seed=*/3);
  MovementOptions movement;
  movement.moving_fraction = 0.05;
  movement.seed = 21;
  const std::vector<UserMove> moves =
      DrawMoves(csp->snapshot(), gen.extent(), movement);
  Result<SnapshotReport> report = csp->AdvanceSnapshot(moves);
  fault::FaultInjector::Global().Disarm();

  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->moves_quarantined, moves.size() / 3);
  EXPECT_EQ(report->moves_applied, moves.size() - moves.size() / 3);
  EXPECT_TRUE(csp->policy().IsMasking(csp->snapshot()));
  EXPECT_TRUE(AuditPolicyAware(csp->policy()).Anonymous(options.k));
}

TEST(CspServerTest, ReportMemoryCoversEveryServingStructure) {
  const BayAreaGenerator gen(SmallBay());
  LocationDatabase db = gen.Generate(800);
  CspOptions options;
  options.k = 10;
  Result<CspServer> csp = CspServer::Start(db, gen.extent(),
                                           SomePois(gen.extent(), 500),
                                           options);
  ASSERT_TRUE(csp.ok()) << csp.status().ToString();
  // Serve a little traffic so the answer cache holds entries.
  RequestGenerator requests(3);
  for (const ServiceRequest& sr : requests.Draw(db, 50)) {
    ASSERT_TRUE(csp->HandleRequest(sr).ok());
  }

  obs::MemoryAccountant accountant;
  csp->ReportMemory(accountant);
  const std::map<std::string, uint64_t> snapshot = accountant.Snapshot();
  // Every long-lived serving structure reports a non-zero footprint.
  for (const char* subsystem :
       {"csp/snapshot", "csp/policy_tree", "csp/config_matrix", "csp/policy",
        "csp/user_index", "lbs/answer_cache", "lbs/poi_index"}) {
    ASSERT_TRUE(snapshot.count(subsystem)) << subsystem;
    EXPECT_GT(snapshot.at(subsystem), 0u) << subsystem;
  }
  // The dominant structures scale with |D|: the snapshot alone stores 800
  // rows, so the total must exceed the raw row storage.
  EXPECT_GE(accountant.TotalBytes(), 800u * sizeof(UserLocation));
}

TEST(CspServerTest, StartFailsBelowK) {
  const BayAreaGenerator gen(SmallBay());
  LocationDatabase db = gen.Generate(3);
  CspOptions options;
  options.k = 10;
  EXPECT_EQ(CspServer::Start(db, gen.extent(), SomePois(gen.extent(), 10),
                             options)
                .status()
                .code(),
            StatusCode::kInfeasible);
}

}  // namespace
}  // namespace pasa
