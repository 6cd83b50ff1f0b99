// Tests for incremental maintenance of the configuration matrix: after any
// batch of moves, the repaired matrix must be indistinguishable from a
// from-scratch rebuild on the new snapshot.

#include <gtest/gtest.h>

#include <string>

#include "pasa/incremental.h"
#include "tests/test_util.h"
#include "tests/tree_checks.h"
#include "workload/bay_area.h"
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

// The oracle is the from-scratch code on the engine's own tree: every live
// row must equal ComputeDpMatrix's, and the engine's policy, kept up to
// date with RefreshPolicy, must equal ExtractOptimalPolicy's configuration,
// assignment and cost.
void ExpectMatchesFromScratch(const IncrementalAnonymizer& engine, int k,
                              const std::string& label) {
  const BinaryTree& tree = engine.tree();
  const ExtractedPolicy& policy = engine.policy();
  Result<DpMatrix> fresh = ComputeDpMatrix(tree, k, DpOptions{});
  ASSERT_TRUE(fresh.ok()) << label;
  ASSERT_EQ(engine.matrix().rows.size(), tree.num_nodes()) << label;
  size_t mismatched = 0;
  for (size_t id = 0; id < tree.num_nodes(); ++id) {
    if (!tree.node(static_cast<int32_t>(id)).live) continue;
    const DpRow& got = engine.matrix().rows[id];
    const DpRow& want = fresh->rows[id];
    if (got.dense != want.dense || got.children_pass != want.children_pass) {
      if (mismatched++ < 3) ADD_FAILURE() << label << ": row " << id;
    }
  }
  EXPECT_EQ(mismatched, 0u) << label;
  Result<ExtractedPolicy> full = ExtractOptimalPolicy(tree, *fresh, k);
  ASSERT_TRUE(full.ok()) << label;
  EXPECT_EQ(policy.config.passed_up, full->config.passed_up) << label;
  EXPECT_EQ(policy.assignment, full->assignment) << label;
  EXPECT_EQ(policy.cost, full->cost) << label;
}

// Applies `moves`, refreshes the policy and checks both against the oracle.
void RepairAndCheck(IncrementalAnonymizer* engine,
                    const std::vector<UserMove>& moves, int k,
                    const std::string& label) {
  Result<size_t> recomputed = engine->ApplyMoves(moves);
  ASSERT_TRUE(recomputed.ok()) << label << ": "
                               << recomputed.status().ToString();
  Status s = engine->RefreshPolicy();
  ASSERT_TRUE(s.ok()) << label << ": " << s.ToString();
  ExpectMatchesFromScratch(*engine, k, label);
}

class IncrementalOracle : public ::testing::TestWithParam<IncrementalParam> {};

TEST_P(IncrementalOracle, RowsAndPolicyEqualFromScratchAfterEveryBatch) {
  const IncrementalParam p = GetParam();
  Rng rng(p.seed);
  const MapExtent extent{0, 0, 6};
  Result<IncrementalAnonymizer> inc = IncrementalAnonymizer::Build(
      RandomDb(&rng, p.n, extent), extent, p.k, DpOptions{});
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  ASSERT_TRUE(inc->RefreshPolicy().ok());
  for (int batch = 0; batch < 8; ++batch) {
    MovementOptions movement;
    movement.moving_fraction = p.moving_fraction;
    movement.max_distance = 12.0;
    movement.seed = p.seed * 1000 + static_cast<uint64_t>(batch);
    RepairAndCheck(&*inc,
                   DrawMoves(inc->snapshot(), extent, movement), p.k,
                   "batch " + std::to_string(batch));
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomDbs, IncrementalOracle,
    ::testing::Values(IncrementalParam{21, 150, 3, 0.02},
                      IncrementalParam{22, 150, 3, 0.20},
                      IncrementalParam{23, 400, 5, 0.05},
                      IncrementalParam{24, 400, 8, 0.01},
                      IncrementalParam{25, 1000, 10, 0.03},
                      IncrementalParam{26, 300, 2, 0.50}),
    [](const ::testing::TestParamInfo<IncrementalParam>& info) {
      const IncrementalParam& p = info.param;
      return "seed" + std::to_string(p.seed) + "_n" + std::to_string(p.n) +
             "_k" + std::to_string(p.k) + "_move" +
             std::to_string(static_cast<int>(p.moving_fraction * 100));
    });

TEST(IncrementalOracleTest, BayAreaSnapshot) {
  BayAreaOptions options;
  options.log2_map_side = 14;
  options.num_intersections = 2000;
  options.users_per_intersection = 10;
  options.user_sigma = 60.0;
  options.num_clusters = 12;
  options.seed = 26;
  const BayAreaGenerator gen(options);
  const int k = 20;
  Result<IncrementalAnonymizer> inc =
      IncrementalAnonymizer::Build(gen.Generate(20'000), gen.extent(), k,
                                   DpOptions{});
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  ASSERT_TRUE(inc->RefreshPolicy().ok());
  for (int batch = 0; batch < 6; ++batch) {
    MovementOptions movement;
    movement.moving_fraction = batch % 2 == 0 ? 0.005 : 0.02;
    movement.max_distance = 200.0;
    movement.seed = 2600 + static_cast<uint64_t>(batch);
    RepairAndCheck(&*inc,
                   DrawMoves(inc->snapshot(), gen.extent(), movement), k,
                   "batch " + std::to_string(batch));
  }
}

TEST(IncrementalOracleTest, BatchesThatSplitAndCollapseNodes) {
  // Piling 40 users into one corner splits leaves there; sending them back
  // collapses those nodes again; then half come back while others leave.
  Rng rng(27);
  const MapExtent extent{0, 0, 6};
  const LocationDatabase db = RandomDb(&rng, 400, extent);
  const int k = 5;
  Result<IncrementalAnonymizer> inc =
      IncrementalAnonymizer::Build(db, extent, k, DpOptions{});
  ASSERT_TRUE(inc.ok());
  ASSERT_TRUE(inc->RefreshPolicy().ok());
  auto corner = [](uint32_t row) {
    return Point{static_cast<Coord>(row % 3), static_cast<Coord>(row % 2)};
  };

  std::vector<UserMove> pile;
  std::vector<UserMove> back;
  for (uint32_t row = 0; row < 40; ++row) {
    pile.push_back({row, db.row(row).location, corner(row)});
    back.push_back({row, corner(row), db.row(row).location});
  }
  const size_t nodes_before = inc->tree().num_nodes();
  RepairAndCheck(&*inc, pile, k, "pile");
  ASSERT_GT(inc->tree().num_nodes(), nodes_before);  // split
  std::vector<bool> live_piled(inc->tree().num_nodes());
  for (size_t id = 0; id < live_piled.size(); ++id) {
    live_piled[id] = inc->tree().node(static_cast<int32_t>(id)).live;
  }

  RepairAndCheck(&*inc, back, k, "back");
  size_t abandoned = 0;  // live after the pile, dead after the way back
  for (size_t id = 0; id < live_piled.size(); ++id) {
    if (live_piled[id] && !inc->tree().node(static_cast<int32_t>(id)).live) {
      ++abandoned;
    }
  }
  EXPECT_GT(abandoned, 0u);

  std::vector<UserMove> mixed;
  for (uint32_t row = 0; row < 40; row += 2) {
    mixed.push_back({row, db.row(row).location, corner(row)});
  }
  for (uint32_t row = 100; row < 140; ++row) {
    mixed.push_back({row, db.row(row).location,
                     Point{63 - static_cast<Coord>(row % 4), 63}});
  }
  RepairAndCheck(&*inc, mixed, k, "mixed");
}

TEST(IncrementalOracleTest, MoveInsideOneLeafReordersItsRowsOnly) {
  // A user moving within its leaf leaves every count and row as it was, so
  // only the leaf itself is recomputed; the leaf's row order still changes
  // (swap-pop, then push), and with it which rows the pool order cloaks.
  Rng rng(28);
  const MapExtent extent{0, 0, 6};
  const int k = 5;
  Result<IncrementalAnonymizer> inc = IncrementalAnonymizer::Build(
      RandomDb(&rng, 300, extent), extent, k, DpOptions{});
  ASSERT_TRUE(inc.ok());
  ASSERT_TRUE(inc->RefreshPolicy().ok());
  // The leaf's first row moves to a corner of the leaf; pick a leaf where
  // that changes the assignment a full extraction yields.
  auto move_in_leaf = [&](int32_t leaf) {
    const uint32_t row = inc->tree().LeafRows(leaf).front();
    const Point from = inc->snapshot().row(row).location;
    const Rect region = inc->tree().node(leaf).region;
    const Point to = from == Point{region.x1, region.y1}
                         ? Point{region.x2 - 1, region.y2 - 1}
                         : Point{region.x1, region.y1};
    return UserMove{row, from, to};
  };
  int32_t leaf = -1;
  for (size_t id = 0; id < inc->tree().num_nodes() && leaf < 0; ++id) {
    const BinaryTree::Node& n = inc->tree().node(static_cast<int32_t>(id));
    if (!n.live || !n.IsLeaf() || n.count < 2) continue;
    IncrementalAnonymizer trial = *inc;
    ASSERT_TRUE(trial.ApplyMoves({move_in_leaf(static_cast<int32_t>(id))})
                    .ok());
    Result<ExtractedPolicy> moved = trial.ExtractPolicy();
    ASSERT_TRUE(moved.ok());
    if (moved->assignment != inc->policy().assignment) {
      leaf = static_cast<int32_t>(id);
    }
  }
  ASSERT_GE(leaf, 0);
  const std::vector<uint32_t> rows_before = inc->tree().LeafRows(leaf);
  const std::vector<DpRow> matrix_before = inc->matrix().rows;
  const std::vector<int32_t> assignment_before = inc->policy().assignment;

  Result<size_t> recomputed = inc->ApplyMoves({move_in_leaf(leaf)});
  ASSERT_TRUE(recomputed.ok()) << recomputed.status().ToString();
  EXPECT_EQ(*recomputed, 1u);
  EXPECT_NE(inc->tree().LeafRows(leaf), rows_before);
  for (size_t id = 0; id < matrix_before.size(); ++id) {
    EXPECT_EQ(inc->matrix().rows[id].dense, matrix_before[id].dense) << id;
  }
  ASSERT_TRUE(inc->RefreshPolicy().ok());
  EXPECT_NE(inc->policy().assignment, assignment_before);
  ExpectMatchesFromScratch(*inc, k, "move inside a leaf");
}

TEST(IncrementalOracleTest, BelowKLeavesThatGainOrLoseAUserStillChange) {
  // A leaf below k has an empty row whatever its count, so a move between
  // two such leaves changes no leaf row; it does change d(m), which the
  // parents' rows read. A cutoff that compared rows alone would keep the
  // parents' stale rows.
  Rng rng(29);
  const MapExtent extent{0, 0, 6};
  const int k = 5;
  Result<IncrementalAnonymizer> inc = IncrementalAnonymizer::Build(
      RandomDb(&rng, 400, extent), extent, k, DpOptions{});
  ASSERT_TRUE(inc.ok());
  ASSERT_TRUE(inc->RefreshPolicy().ok());
  const uint32_t kk = static_cast<uint32_t>(k);
  size_t moves_made = 0;
  size_t parent_rows_changed = 0;
  for (uint32_t row = 0; row < inc->snapshot().size() && moves_made < 30;
       ++row) {
    const BinaryTree& tree = inc->tree();
    const Point from = inc->snapshot().row(row).location;
    const int32_t source = tree.LeafForPoint(from);
    const int32_t parent = tree.node(source).parent;
    // Leaves [2, k) lose a user without emptying, parents keep >= k + 1.
    if (tree.node(source).count < 2 || tree.node(source).count >= kk ||
        parent < 0 || tree.node(parent).count < kk + 1) {
      continue;
    }
    // The destination: another leaf in [1, k - 1) that stays below k.
    const Point to{static_cast<Coord>(rng.NextBounded(extent.side())),
                   static_cast<Coord>(rng.NextBounded(extent.side()))};
    const int32_t dest = tree.LeafForPoint(to);
    if (dest == source || tree.node(dest).count < 1 ||
        tree.node(dest).count + 1 >= kk) {
      continue;
    }
    ASSERT_TRUE(inc->matrix().rows[source].dense.empty());
    ASSERT_TRUE(inc->matrix().rows[dest].dense.empty());
    const DpRow parent_before = inc->matrix().rows[parent];
    const std::string label = "move of row " + std::to_string(row);
    RepairAndCheck(&*inc, {UserMove{row, from, to}}, k, label);
    ASSERT_TRUE(inc->tree().node(source).IsLeaf()) << label;
    ASSERT_TRUE(inc->matrix().rows[source].dense.empty()) << label;
    ASSERT_TRUE(inc->matrix().rows[dest].dense.empty()) << label;
    const DpRow& parent_after = inc->matrix().rows[parent];
    if (parent_after.dense != parent_before.dense ||
        parent_after.children_pass != parent_before.children_pass) {
      ++parent_rows_changed;
    }
    ++moves_made;
  }
  EXPECT_EQ(moves_made, 30u);
  EXPECT_GT(parent_rows_changed, 0u);
}

// RefreshPolicy on every path to a tree: whether it re-walks what one repair
// changed or extracts in full, the engine's policy equals a from-scratch
// extraction on the tree it ends on.
TEST(EnginePolicyTest, RefreshEqualsAFullExtractionOnEveryPath) {
  Rng rng(30);
  const MapExtent extent{0, 0, 7};
  const int k = 5;
  Result<IncrementalAnonymizer> inc = IncrementalAnonymizer::Build(
      RandomDb(&rng, 600, extent), extent, k, DpOptions{});
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  EXPECT_TRUE(inc->policy().assignment.empty());  // Build extracts nothing
  ASSERT_TRUE(inc->RefreshPolicy().ok());
  ExpectMatchesFromScratch(*inc, k, "after Build");

  uint64_t seed = 3000;
  auto moves = [&](double fraction) {
    MovementOptions movement;
    movement.moving_fraction = fraction;
    movement.max_distance = 40.0;
    movement.seed = ++seed;
    return DrawMoves(inc->snapshot(), extent, movement);
  };
  RepairAndCheck(&*inc, moves(0.02), k, "after one repair");

  ASSERT_TRUE(inc->ApplyMoves(moves(0.02)).ok());
  ASSERT_TRUE(inc->ApplyMoves(moves(0.02)).ok());
  ASSERT_TRUE(inc->RefreshPolicy().ok());
  ExpectMatchesFromScratch(*inc, k, "after two repairs");
  RepairAndCheck(&*inc, moves(0.02), k, "after a repair that follows them");

  ASSERT_TRUE(inc->Rebuild(moves(0.10)).ok());
  EXPECT_TRUE(inc->policy().assignment.empty());  // Rebuild drops it
  ASSERT_TRUE(inc->RefreshPolicy().ok());
  ExpectMatchesFromScratch(*inc, k, "after Rebuild");

  // The repair fallback: a batch fails part-way, Rebuild puts it in place.
  std::vector<UserMove> batch = moves(0.02);
  ASSERT_FALSE(batch.empty());
  UserMove& last = batch.back();
  last.from.x = last.from.x == 0 ? 1 : last.from.x - 1;  // stale origin
  ASSERT_FALSE(inc->ApplyMoves(batch).ok());
  ASSERT_TRUE(inc->Rebuild(batch).ok());
  ASSERT_TRUE(inc->RefreshPolicy().ok());
  ExpectMatchesFromScratch(*inc, k, "after the repair fallback");
  RepairAndCheck(&*inc, moves(0.02), k, "after a repair that follows it");
}

TEST(EnginePolicyTest, TwoRepairsWithoutARefreshBetweenThem) {
  // The policy is current before the first repair only, so the refresh
  // after the second must not re-walk just what the second one changed.
  BayAreaOptions options;
  options.log2_map_side = 13;
  options.num_intersections = 500;
  options.users_per_intersection = 10;
  options.user_sigma = 60.0;
  options.num_clusters = 8;
  options.seed = 31;
  const BayAreaGenerator gen(options);
  const int k = 20;
  Result<IncrementalAnonymizer> inc = IncrementalAnonymizer::Build(
      gen.Generate(5'000), gen.extent(), k, DpOptions{});
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  ASSERT_TRUE(inc->RefreshPolicy().ok());
  for (int round = 0; round < 10; ++round) {
    for (int repair = 0; repair < 2; ++repair) {
      MovementOptions movement;
      movement.moving_fraction = 0.01;
      movement.max_distance = 200.0;
      movement.seed = 3100 + static_cast<uint64_t>(2 * round + repair);
      ASSERT_TRUE(
          inc->ApplyMoves(DrawMoves(inc->snapshot(), gen.extent(), movement))
              .ok());
    }
    const std::string label = "round " + std::to_string(round);
    Status s = inc->RefreshPolicy();
    ASSERT_TRUE(s.ok()) << label << ": " << s.ToString();
    ExpectMatchesFromScratch(*inc, k, label);
  }
}

TEST(EnginePolicyTest, FailedRefreshLeavesThePolicyEmptyUntilRebuild) {
  Rng rng(32);
  const MapExtent extent{0, 0, 6};
  const int k = 4;
  const LocationDatabase db = RandomDb(&rng, 200, extent);
  Result<IncrementalAnonymizer> inc =
      IncrementalAnonymizer::Build(db, extent, k, DpOptions{});
  ASSERT_TRUE(inc.ok());
  ASSERT_TRUE(inc->RefreshPolicy().ok());
  ASSERT_EQ(inc->policy().assignment.size(), db.size());

  // A stale move fails the batch. However far a failed batch got, the
  // engine neither repairs nor reads a policy off its tree and matrix until
  // a Rebuild; this one failed before moving anyone, where an extraction
  // would still work.
  std::vector<UserMove> batch;
  for (uint32_t row = 0; row < 3; ++row) {
    batch.push_back({row, db.row(row).location,
                     Point{static_cast<Coord>(60 + row), 60}});
  }
  batch.front().from.x = batch.front().from.x == 0 ? 1 : 0;
  ASSERT_FALSE(inc->ApplyMoves(batch).ok());
  for (int attempt = 0; attempt < 2; ++attempt) {
    Status s = inc->RefreshPolicy();
    EXPECT_EQ(s.code(), StatusCode::kInternal) << s.ToString();
    EXPECT_TRUE(inc->policy().assignment.empty());
    EXPECT_TRUE(inc->policy().config.passed_up.empty());
    EXPECT_EQ(inc->policy().cost, 0);
  }
  Result<size_t> repair = inc->ApplyMoves({});
  EXPECT_EQ(repair.status().code(), StatusCode::kInternal);

  ASSERT_TRUE(inc->Rebuild(batch).ok());
  ASSERT_TRUE(inc->RefreshPolicy().ok());
  ExpectMatchesFromScratch(*inc, k, "after the rebuild");
}

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
