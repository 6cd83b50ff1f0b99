// Tests for incremental maintenance of the configuration matrix: after any
// batch of moves, the repaired matrix must be indistinguishable from a
// from-scratch rebuild on the new snapshot.

#include <gtest/gtest.h>

#include "pasa/incremental.h"
#include "tests/test_util.h"
#include "tests/tree_checks.h"
#include "workload/movement.h"

namespace pasa {
namespace {

using testing_util::ExpectLeavesPartitionAndCountsConsistent;
using testing_util::MakeDb;
using testing_util::RandomDb;

Cost RebuildCost(const LocationDatabase& db, const MapExtent& extent, int k) {
  TreeOptions tree_options;
  tree_options.split_threshold = k;
  Result<BinaryTree> tree = BinaryTree::Build(db, extent, tree_options);
  EXPECT_TRUE(tree.ok());
  Result<DpMatrix> matrix = ComputeDpMatrix(*tree, k, DpOptions{});
  EXPECT_TRUE(matrix.ok());
  Result<Cost> cost = matrix->OptimalCost(*tree);
  EXPECT_TRUE(cost.ok());
  return *cost;
}

struct IncrementalParam {
  uint64_t seed;
  int n;
  int k;
  double moving_fraction;
};

class IncrementalSweep : public ::testing::TestWithParam<IncrementalParam> {};

TEST_P(IncrementalSweep, MatchesRebuildAcrossSnapshots) {
  const IncrementalParam p = GetParam();
  Rng rng(p.seed);
  const MapExtent extent{0, 0, 6};
  LocationDatabase db = RandomDb(&rng, p.n, extent);

  Result<IncrementalAnonymizer> inc =
      IncrementalAnonymizer::Build(db, extent, p.k, DpOptions{});
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();

  for (int snapshot = 0; snapshot < 5; ++snapshot) {
    MovementOptions movement;
    movement.moving_fraction = p.moving_fraction;
    movement.max_distance = 12.0;
    movement.seed = p.seed * 100 + static_cast<uint64_t>(snapshot);
    const std::vector<UserMove> moves = DrawMoves(db, extent, movement);

    Result<size_t> recomputed = inc->ApplyMoves(moves);
    ASSERT_TRUE(recomputed.ok()) << recomputed.status().ToString();
    ASSERT_TRUE(ApplyMovesToDatabase(moves, &db).ok());

    Result<Cost> incremental_cost = inc->OptimalCost();
    ASSERT_TRUE(incremental_cost.ok());
    EXPECT_EQ(*incremental_cost, RebuildCost(db, extent, p.k))
        << "snapshot " << snapshot;

    // The extracted policy stays valid on the moved snapshot.
    Result<ExtractedPolicy> policy = inc->ExtractPolicy();
    ASSERT_TRUE(policy.ok());
    const CloakingTable table = policy->Table(inc->tree());
    EXPECT_TRUE(table.IsMasking(db));
    EXPECT_GE(table.MinGroupSize(), static_cast<size_t>(p.k));
    EXPECT_EQ(table.TotalCost(), *incremental_cost);
  }
}

INSTANTIATE_TEST_SUITE_P(
    MovesVsRebuild, IncrementalSweep,
    ::testing::Values(IncrementalParam{1, 60, 3, 0.02},
                      IncrementalParam{2, 60, 3, 0.10},
                      IncrementalParam{3, 120, 5, 0.05},
                      IncrementalParam{4, 120, 5, 0.30},
                      IncrementalParam{5, 200, 8, 0.01},
                      IncrementalParam{6, 200, 2, 0.50}),
    [](const ::testing::TestParamInfo<IncrementalParam>& info) {
      const IncrementalParam& p = info.param;
      return "seed" + std::to_string(p.seed) + "_n" + std::to_string(p.n) +
             "_k" + std::to_string(p.k) + "_move" +
             std::to_string(static_cast<int>(p.moving_fraction * 100));
    });

TEST(IncrementalTest, NoMovesIsANoOp) {
  Rng rng(9);
  const MapExtent extent{0, 0, 5};
  LocationDatabase db = RandomDb(&rng, 50, extent);
  Result<IncrementalAnonymizer> inc =
      IncrementalAnonymizer::Build(db, extent, 4, DpOptions{});
  ASSERT_TRUE(inc.ok());
  const Result<Cost> before = inc->OptimalCost();
  Result<size_t> recomputed = inc->ApplyMoves({});
  ASSERT_TRUE(recomputed.ok());
  EXPECT_EQ(*recomputed, 0u);
  EXPECT_EQ(*inc->OptimalCost(), *before);
}

TEST(IncrementalTest, MoveAcrossTheWholeMap) {
  // A single user teleporting across the map exercises split + collapse on
  // two distant paths at once.
  Rng rng(10);
  const MapExtent extent{0, 0, 6};
  LocationDatabase db = RandomDb(&rng, 150, extent);
  const int k = 5;
  Result<IncrementalAnonymizer> inc =
      IncrementalAnonymizer::Build(db, extent, k, DpOptions{});
  ASSERT_TRUE(inc.ok());
  for (int i = 0; i < 10; ++i) {
    const uint32_t row = static_cast<uint32_t>(rng.NextBounded(db.size()));
    const Point from = db.row(row).location;
    const Point to{static_cast<Coord>(rng.NextBounded(extent.side())),
                   static_cast<Coord>(rng.NextBounded(extent.side()))};
    ASSERT_TRUE(inc->ApplyMoves({UserMove{row, from, to}}).ok());
    ASSERT_TRUE(db.MoveRow(row, to).ok());
    EXPECT_EQ(*inc->OptimalCost(), RebuildCost(db, extent, k)) << i;
  }
}

TEST(IncrementalTest, SplitMidBatchPlacesLaterMoversByTheirOldLocations) {
  // On an 8x8 map at k = 3 the south-west square [0,4)x[0,4) is a leaf with
  // rows 0 and 1. Move 0 brings row 6 in, which splits that leaf into
  // [0,2)x[0,4) and [2,4)x[0,4) while row 0, moved only later in the same
  // batch, still sits at (0,0): the split must file it west, by where it is
  // now, not east, where move 1 takes it.
  const MapExtent extent{0, 0, 3};
  LocationDatabase db = MakeDb({{0, 0}, {3, 3},                // SW leaf
                                {0, 5}, {1, 6}, {2, 7},        // NW
                                {5, 1}, {6, 6}, {5, 5}, {6, 2}});  // east
  const int k = 3;
  Result<IncrementalAnonymizer> inc =
      IncrementalAnonymizer::Build(db, extent, k, DpOptions{});
  ASSERT_TRUE(inc.ok());
  const int32_t sw = inc->tree().LeafForPoint({0, 0});
  ASSERT_EQ(inc->tree().node(sw).region, (Rect{0, 0, 4, 4}));
  ASSERT_EQ(inc->tree().node(sw).count, 2u);

  const std::vector<UserMove> moves = {{6, {6, 6}, {1, 1}},
                                       {0, {0, 0}, {3, 1}}};
  Result<size_t> recomputed = inc->ApplyMoves(moves);
  ASSERT_TRUE(recomputed.ok()) << recomputed.status().ToString();
  ASSERT_TRUE(ApplyMovesToDatabase(moves, &db).ok());
  EXPECT_EQ(inc->snapshot().rows(), db.rows());
  EXPECT_FALSE(inc->tree().node(sw).IsLeaf());

  ExpectLeavesPartitionAndCountsConsistent(inc->tree(), db);
  Result<Cost> cost = inc->OptimalCost();
  ASSERT_TRUE(cost.ok());
  EXPECT_EQ(*cost, RebuildCost(db, extent, k));
  Result<ExtractedPolicy> policy = inc->ExtractPolicy();
  ASSERT_TRUE(policy.ok());
  const CloakingTable table = policy->Table(inc->tree());
  EXPECT_TRUE(table.IsMasking(db));
  EXPECT_GE(table.MinGroupSize(), static_cast<size_t>(k));
}

TEST(IncrementalTest, GrowingRepairSizesTheRowArrayExactly) {
  // Piling users into one corner splits a leaf there, which adds tree nodes
  // and so matrix rows; the row array must grow to exactly num_nodes().
  Rng rng(12);
  const MapExtent extent{0, 0, 6};
  const LocationDatabase db = RandomDb(&rng, 400, extent);
  const int k = 5;
  Result<IncrementalAnonymizer> inc =
      IncrementalAnonymizer::Build(db, extent, k, DpOptions{});
  ASSERT_TRUE(inc.ok());
  const size_t nodes_before = inc->tree().num_nodes();
  std::vector<UserMove> moves;
  for (uint32_t row = 0; row < 40; ++row) {
    moves.push_back(UserMove{row, db.row(row).location,
                             Point{static_cast<Coord>(row % 3),
                                   static_cast<Coord>(row % 2)}});
  }
  ASSERT_TRUE(inc->ApplyMoves(moves).ok());
  const DpMatrix& matrix = inc->matrix();
  ASSERT_GT(inc->tree().num_nodes(), nodes_before);
  ASSERT_EQ(matrix.rows.size(), inc->tree().num_nodes());

  DpMatrix exact;
  exact.rows.reserve(matrix.rows.size());
  for (const DpRow& row : matrix.rows) exact.rows.push_back(row);
  EXPECT_EQ(matrix.ApproxBytes(), exact.ApproxBytes());
}

TEST(IncrementalTest, RejectsStaleMove) {
  Rng rng(11);
  const MapExtent extent{0, 0, 4};
  LocationDatabase db = RandomDb(&rng, 20, extent);
  Result<IncrementalAnonymizer> inc =
      IncrementalAnonymizer::Build(db, extent, 3, DpOptions{});
  ASSERT_TRUE(inc.ok());
  const Point actual = db.row(0).location;
  const Point wrong{actual.x == 0 ? actual.x + 1 : actual.x - 1, actual.y};
  EXPECT_FALSE(inc->ApplyMoves({UserMove{0, wrong, {0, 0}}}).ok());
}

}  // namespace
}  // namespace pasa
