// Adversarial-geometry and long-run stress tests: degenerate snapshots,
// heavy coordinate duplication, boundary k values, and extended incremental
// maintenance sessions with splits and collapses.

#include <gtest/gtest.h>

#include "attack/auditor.h"
#include "pasa/anonymizer.h"
#include "pasa/incremental.h"
#include "tests/test_util.h"
#include "workload/bay_area.h"
#include "workload/movement.h"

namespace pasa {
namespace {

using testing_util::MakeDb;
using testing_util::RandomDb;

void ExpectValidOptimum(const LocationDatabase& db, const MapExtent& extent,
                        int k) {
  AnonymizerOptions options;
  options.k = k;
  Result<Anonymizer> a = Anonymizer::Build(db, extent, options);
  ASSERT_TRUE(a.ok()) << "k=" << k << ": " << a.status().ToString();
  EXPECT_TRUE(a->policy().IsMasking(db));
  EXPECT_GE(a->policy().MinGroupSize(), static_cast<size_t>(k));
  EXPECT_TRUE(SatisfiesKSummation(a->tree(), a->config(), k));
  EXPECT_EQ(a->policy().TotalCost(), a->cost());
}

TEST(StressGeometry, AllUsersOnOneHorizontalLine) {
  std::vector<Point> points;
  for (Coord x = 0; x < 32; ++x) points.push_back({x, 7});
  const LocationDatabase db = MakeDb(points);
  for (const int k : {2, 5, 16, 32}) {
    ExpectValidOptimum(db, MapExtent{0, 0, 5}, k);
  }
}

TEST(StressGeometry, UsersAtTheFourMapCorners) {
  const Coord side = 255;
  const LocationDatabase db = MakeDb(
      {{0, 0}, {side, 0}, {0, side}, {side, side}, {0, 1}, {side, 1}});
  for (const int k : {2, 3, 6}) {
    ExpectValidOptimum(db, MapExtent{0, 0, 8}, k);
  }
}

TEST(StressGeometry, HeavyCoordinateDuplication) {
  // 40 users on only 3 distinct points: unsplittable 1x1 leaves hold far
  // more than k users, exercising the leaf dense-row path (d >> k).
  std::vector<Point> points;
  for (int i = 0; i < 40; ++i) {
    points.push_back(i % 3 == 0 ? Point{1, 1}
                                : (i % 3 == 1 ? Point{6, 6} : Point{1, 6}));
  }
  const LocationDatabase db = MakeDb(points);
  for (const int k : {2, 7, 13, 40}) {
    ExpectValidOptimum(db, MapExtent{0, 0, 3}, k);
  }
}

TEST(StressGeometry, BoundaryKValues) {
  Rng rng(1);
  const MapExtent extent{0, 0, 5};
  const LocationDatabase db = RandomDb(&rng, 64, extent);
  ExpectValidOptimum(db, extent, 1);
  ExpectValidOptimum(db, extent, 63);
  ExpectValidOptimum(db, extent, 64);  // k == |D|: one group
  AnonymizerOptions options;
  options.k = 65;                      // k > |D|: infeasible
  EXPECT_EQ(Anonymizer::Build(db, extent, options).status().code(),
            StatusCode::kInfeasible);
}

TEST(StressGeometry, OneByOneMap) {
  // Everything collapses onto one unsplittable cell.
  std::vector<Point> points(10, Point{0, 0});
  const LocationDatabase db = MakeDb(points);
  AnonymizerOptions options;
  options.k = 4;
  Result<Anonymizer> a = Anonymizer::Build(db, MapExtent{0, 0, 0}, options);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->cost(), 10);  // 10 users x area 1
}

TEST(StressGeometry, SingleUserKOne) {
  const LocationDatabase db = MakeDb({{3, 3}});
  AnonymizerOptions options;
  options.k = 1;
  Result<Anonymizer> a = Anonymizer::Build(db, MapExtent{0, 0, 3}, options);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->policy().MinGroupSize(), 1u);
  EXPECT_TRUE(a->CloakForRow(0).Contains({3, 3}));
}

TEST(StressIncremental, ThirtySnapshotsStayOptimal) {
  BayAreaOptions bay;
  bay.log2_map_side = 12;
  bay.num_intersections = 500;
  bay.users_per_intersection = 5;
  bay.user_sigma = 40.0;
  bay.num_clusters = 8;
  bay.seed = 31;
  const BayAreaGenerator generator(bay);
  LocationDatabase db = generator.Generate(2500);
  const int k = 15;

  Result<IncrementalAnonymizer> engine =
      IncrementalAnonymizer::Build(db, generator.extent(), k, DpOptions{});
  ASSERT_TRUE(engine.ok());

  for (int snapshot = 0; snapshot < 30; ++snapshot) {
    MovementOptions movement;
    movement.moving_fraction = 0.02;
    movement.max_distance = 120.0;
    movement.seed = 10'000 + static_cast<uint64_t>(snapshot);
    const std::vector<UserMove> moves =
        DrawMoves(db, generator.extent(), movement);
    ASSERT_TRUE(engine->ApplyMoves(moves).ok()) << snapshot;
    ASSERT_TRUE(ApplyMovesToDatabase(moves, &db).ok());

    // Every 10th snapshot, verify against a full rebuild.
    if (snapshot % 10 == 9) {
      Result<IncrementalAnonymizer> fresh = IncrementalAnonymizer::Build(
          db, generator.extent(), k, DpOptions{});
      ASSERT_TRUE(fresh.ok());
      EXPECT_EQ(*engine->OptimalCost(), *fresh->OptimalCost())
          << "snapshot " << snapshot;
    }
  }
  // Final policy remains fully valid.
  Result<ExtractedPolicy> policy = engine->ExtractPolicy();
  ASSERT_TRUE(policy.ok());
  const CloakingTable table = policy->Table(engine->tree());
  EXPECT_TRUE(table.IsMasking(db));
  EXPECT_GE(table.MinGroupSize(), static_cast<size_t>(k));
}

TEST(StressIncremental, EveryoneConvergesToOnePoint) {
  // Waves of moves funnel all users into a single cell: massive collapses.
  Rng rng(4);
  const MapExtent extent{0, 0, 6};
  LocationDatabase db = RandomDb(&rng, 300, extent);
  const int k = 10;
  Result<IncrementalAnonymizer> engine =
      IncrementalAnonymizer::Build(db, extent, k, DpOptions{});
  ASSERT_TRUE(engine.ok());

  const Point sink{32, 32};
  std::vector<UserMove> moves;
  for (uint32_t row = 0; row < db.size(); ++row) {
    moves.push_back(UserMove{row, db.row(row).location, sink});
  }
  ASSERT_TRUE(engine->ApplyMoves(moves).ok());
  ASSERT_TRUE(ApplyMovesToDatabase(moves, &db).ok());
  Result<Cost> cost = engine->OptimalCost();
  ASSERT_TRUE(cost.ok());
  EXPECT_EQ(*cost, static_cast<Cost>(db.size()));  // all in one 1x1 cell
  // And disperse again.
  std::vector<UserMove> back;
  for (uint32_t row = 0; row < db.size(); ++row) {
    back.push_back(UserMove{
        row, sink,
        Point{static_cast<Coord>(rng.NextBounded(extent.side())),
              static_cast<Coord>(rng.NextBounded(extent.side()))}});
  }
  ASSERT_TRUE(engine->ApplyMoves(back).ok());
  ASSERT_TRUE(ApplyMovesToDatabase(back, &db).ok());
  Result<IncrementalAnonymizer> fresh =
      IncrementalAnonymizer::Build(db, extent, k, DpOptions{});
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*engine->OptimalCost(), *fresh->OptimalCost());
}

}  // namespace
}  // namespace pasa
