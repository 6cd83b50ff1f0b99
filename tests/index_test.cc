// Tests for the spatial index substrate: the Morton range-counting index and
// the lazily materialized quad and binary (semi-quadrant) trees, including
// the mutation path used by incremental maintenance.

#include <gtest/gtest.h>

#include <numeric>

#include "index/binary_tree.h"
#include "index/morton.h"
#include "index/quad_tree.h"
#include "tests/test_util.h"
#include "tests/tree_checks.h"
#include "workload/bay_area.h"

namespace pasa {
namespace {

using testing_util::ExpectLeavesPartitionAndCountsConsistent;
using testing_util::MakeDb;
using testing_util::RandomDb;

TEST(MapExtentTest, CoveringPicksSmallestPowerOfTwo) {
  Result<MapExtent> e = MapExtent::Covering(Rect{10, 20, 15, 23});
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->origin_x, 10);
  EXPECT_EQ(e->origin_y, 20);
  EXPECT_EQ(e->side(), 8);  // needs >= 5, smallest power of two is 8
  EXPECT_FALSE(MapExtent::Covering(Rect{0, 0, 0, 0}).ok());
}

TEST(MortonTest, CountsMatchLinearScanOnRandomQuadrants) {
  Rng rng(11);
  const MapExtent extent{0, 0, 5};
  const LocationDatabase db = RandomDb(&rng, 200, extent);
  Result<MortonIndex> index = MortonIndex::Build(db, extent);
  ASSERT_TRUE(index.ok());

  // Every quadrant at every depth: Morton count == linear scan count.
  for (int depth = 0; depth <= index->max_depth(); ++depth) {
    for (uint64_t prefix = 0; prefix < (uint64_t{1} << (2 * depth));
         ++prefix) {
      const QuadPath path{prefix, depth};
      EXPECT_EQ(index->CountQuadrant(path),
                db.CountInside(index->RegionOf(path)))
          << "depth=" << depth << " prefix=" << prefix;
    }
  }
}

TEST(MortonTest, SemiQuadrantCountsMatchLinearScan) {
  Rng rng(12);
  const MapExtent extent{0, 0, 4};
  const LocationDatabase db = RandomDb(&rng, 150, extent);
  Result<MortonIndex> index = MortonIndex::Build(db, extent);
  ASSERT_TRUE(index.ok());
  for (int depth = 0; depth < 3; ++depth) {
    for (uint64_t prefix = 0; prefix < (uint64_t{1} << (2 * depth));
         ++prefix) {
      const QuadPath path{prefix, depth};
      for (const bool west : {true, false}) {
        EXPECT_EQ(index->CountVerticalHalf(path, west),
                  db.CountInside(index->VerticalHalfRegion(path, west)));
      }
      for (const bool south : {true, false}) {
        EXPECT_EQ(index->CountHorizontalHalf(path, south),
                  db.CountInside(index->HorizontalHalfRegion(path, south)));
      }
    }
  }
}

TEST(MortonTest, PathForPointRoundTrips) {
  Rng rng(13);
  const MapExtent extent{0, 0, 6};
  const LocationDatabase db = RandomDb(&rng, 50, extent);
  Result<MortonIndex> index = MortonIndex::Build(db, extent);
  ASSERT_TRUE(index.ok());
  for (const auto& row : db.rows()) {
    for (const int depth : {0, 1, 3, 6}) {
      const QuadPath path = index->PathForPoint(row.location, depth);
      EXPECT_TRUE(index->RegionOf(path).Contains(row.location));
    }
  }
}

TEST(MortonTest, RejectsPointsOutsideExtent) {
  LocationDatabase db = MakeDb({{100, 100}});
  EXPECT_FALSE(MortonIndex::Build(db, MapExtent{0, 0, 3}).ok());
}

TEST(MortonTest, KeyOfRowMatchesKeyForPoint) {
  Rng rng(14);
  const MapExtent extent{0, 0, 6};
  const LocationDatabase db = RandomDb(&rng, 40, extent);
  Result<MortonIndex> index = MortonIndex::Build(db, extent);
  ASSERT_TRUE(index.ok());
  for (size_t row = 0; row < db.size(); ++row) {
    EXPECT_EQ(index->KeyOfRow(row),
              index->KeyForPoint(db.row(row).location));
  }
  EXPECT_EQ(index->size(), db.size());
}

TEST(MortonTest, KeysOrderSouthwestFirstWithinQuadrants) {
  // The SW, SE, NW, NE child order must be reflected in key magnitudes.
  const MapExtent extent{0, 0, 1};
  LocationDatabase db;
  Result<MortonIndex> index = MortonIndex::Build(db, extent);
  ASSERT_TRUE(index.ok());
  const uint64_t sw = index->KeyForPoint({0, 0});
  const uint64_t se = index->KeyForPoint({1, 0});
  const uint64_t nw = index->KeyForPoint({0, 1});
  const uint64_t ne = index->KeyForPoint({1, 1});
  EXPECT_LT(sw, se);
  EXPECT_LT(se, nw);
  EXPECT_LT(nw, ne);
}

TEST(BinaryTreeTest, SubtreeRowsGathersExactlyTheResidents) {
  Rng rng(26);
  const MapExtent extent{0, 0, 5};
  const LocationDatabase db = RandomDb(&rng, 200, extent);
  Result<BinaryTree> tree =
      BinaryTree::Build(db, extent, TreeOptions{.split_threshold = 8});
  ASSERT_TRUE(tree.ok());
  for (size_t id = 0; id < tree->num_nodes(); ++id) {
    const BinaryTree::Node& n = tree->node(static_cast<int32_t>(id));
    if (!n.live) continue;
    const std::vector<uint32_t> rows =
        tree->SubtreeRows(static_cast<int32_t>(id));
    EXPECT_EQ(rows.size(), n.count);
    for (const uint32_t row : rows) {
      EXPECT_TRUE(n.region.Contains(db.row(row).location));
    }
  }
}

TEST(QuadTreeTest, BuildInvariants) {
  Rng rng(21);
  const MapExtent extent{0, 0, 5};
  const LocationDatabase db = RandomDb(&rng, 300, extent);
  Result<QuadTree> tree =
      QuadTree::Build(db, extent, TreeOptions{.split_threshold = 10});
  ASSERT_TRUE(tree.ok());
  ExpectLeavesPartitionAndCountsConsistent(*tree, db);
  // Lazy rule: any leaf above the threshold must be unsplittable (1x1).
  for (size_t id = 0; id < tree->num_nodes(); ++id) {
    const QuadTree::Node& n = tree->node(static_cast<int32_t>(id));
    if (n.IsLeaf() && n.count > 10) EXPECT_EQ(n.region.width(), 1);
  }
}

TEST(QuadTreeTest, LeafForPointConsistent) {
  Rng rng(22);
  const MapExtent extent{0, 0, 5};
  const LocationDatabase db = RandomDb(&rng, 100, extent);
  Result<QuadTree> tree =
      QuadTree::Build(db, extent, TreeOptions{.split_threshold = 5});
  ASSERT_TRUE(tree.ok());
  for (const auto& row : db.rows()) {
    const int32_t leaf = tree->LeafForPoint(row.location);
    EXPECT_TRUE(tree->node(leaf).region.Contains(row.location));
    EXPECT_TRUE(tree->node(leaf).IsLeaf());
  }
}

TEST(BinaryTreeTest, BuildInvariants) {
  Rng rng(23);
  const MapExtent extent{0, 0, 5};
  const LocationDatabase db = RandomDb(&rng, 300, extent);
  Result<BinaryTree> tree =
      BinaryTree::Build(db, extent, TreeOptions{.split_threshold = 10});
  ASSERT_TRUE(tree.ok());
  ExpectLeavesPartitionAndCountsConsistent(*tree, db);

  // Node kinds alternate: squares split into vertical semi-quadrants which
  // split back into squares.
  for (size_t id = 0; id < tree->num_nodes(); ++id) {
    const BinaryTree::Node& n = tree->node(static_cast<int32_t>(id));
    if (!n.live || n.IsLeaf()) continue;
    const BinaryTree::Node& child = tree->node(n.first_child);
    EXPECT_NE(static_cast<int>(n.kind), static_cast<int>(child.kind));
    EXPECT_EQ(tree->node(n.first_child).region.Area() +
                  tree->node(n.first_child + 1).region.Area(),
              n.region.Area());
  }
}

TEST(BinaryTreeTest, RootedBuildOnSemiQuadrant) {
  // A jurisdiction shaped like a vertical semi-quadrant (w x 2w).
  const LocationDatabase db =
      MakeDb({{0, 0}, {1, 5}, {3, 7}, {2, 2}, {0, 6}});
  Result<BinaryTree> tree = BinaryTree::BuildRooted(
      db, Rect{0, 0, 4, 8}, BinaryTree::NodeKind::kVerticalSemi,
      TreeOptions{.split_threshold = 2});
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->node(BinaryTree::kRootId).region, (Rect{0, 0, 4, 8}));
  ExpectLeavesPartitionAndCountsConsistent(*tree, db);
  // The semi-quadrant root splits horizontally into two 4x4 squares.
  const int32_t first = tree->node(BinaryTree::kRootId).first_child;
  ASSERT_GE(first, 0);
  EXPECT_EQ(tree->node(first).region, (Rect{0, 0, 4, 4}));
  EXPECT_EQ(tree->node(first + 1).region, (Rect{0, 4, 4, 8}));
}

TEST(BinaryTreeTest, ShapeStatsAndHeight) {
  Rng rng(24);
  const MapExtent extent{0, 0, 6};
  const LocationDatabase db = RandomDb(&rng, 500, extent);
  Result<BinaryTree> tree =
      BinaryTree::Build(db, extent, TreeOptions{.split_threshold = 8});
  ASSERT_TRUE(tree.ok());
  const BinaryTree::ShapeStats stats = tree->ComputeShapeStats();
  EXPECT_EQ(stats.live_nodes, tree->num_live_nodes());
  EXPECT_EQ(stats.height, tree->Height());
  EXPECT_GT(stats.leaves, 0u);
  // Split threshold 8 and splittable cells: interior leaves hold <= 8.
  EXPECT_LE(stats.max_leaf_occupancy, 500u);
  EXPECT_GE(stats.mean_leaf_depth, 1.0);
}

TEST(BinaryTreeTest, ApplyMoveKeepsTreeIdenticalToRebuild) {
  Rng rng(25);
  const MapExtent extent{0, 0, 5};
  LocationDatabase db = RandomDb(&rng, 120, extent);
  const TreeOptions options{.split_threshold = 4};
  Result<BinaryTree> tree = BinaryTree::Build(db, extent, options);
  ASSERT_TRUE(tree.ok());

  // 40 random single-user moves applied one batch at a time.
  for (int round = 0; round < 40; ++round) {
    const uint32_t row = static_cast<uint32_t>(rng.NextBounded(db.size()));
    const Point from = db.row(row).location;
    const Point to{static_cast<Coord>(rng.NextBounded(extent.side())),
                   static_cast<Coord>(rng.NextBounded(extent.side()))};
    std::vector<BinaryTree::Touch> touched;
    ASSERT_TRUE(db.MoveRow(row, to).ok());
    ASSERT_TRUE(tree->ApplyMove(row, from, db, &touched).ok());
    EXPECT_FALSE(touched.empty());
  }
  ExpectLeavesPartitionAndCountsConsistent(*tree, db);

  // The mutated tree has exactly the shape a fresh build would produce.
  Result<BinaryTree> rebuilt = BinaryTree::Build(db, extent, options);
  ASSERT_TRUE(rebuilt.ok());
  const auto a = tree->ComputeShapeStats();
  const auto b = rebuilt->ComputeShapeStats();
  EXPECT_EQ(a.leaves, b.leaves);
  EXPECT_EQ(a.height, b.height);
  EXPECT_EQ(a.live_nodes, b.live_nodes);
  EXPECT_EQ(a.max_leaf_occupancy, b.max_leaf_occupancy);
}

TEST(BinaryTreeTest, ApplyMoveValidatesInput) {
  const MapExtent extent{0, 0, 3};
  LocationDatabase db = MakeDb({{1, 1}, {2, 2}, {3, 3}});
  Result<BinaryTree> tree =
      BinaryTree::Build(db, extent, TreeOptions{.split_threshold = 1});
  ASSERT_TRUE(tree.ok());
  std::vector<BinaryTree::Touch> touched;
  EXPECT_FALSE(tree->ApplyMove(7, {1, 1}, db, &touched).ok());
  ASSERT_TRUE(db.MoveRow(0, {100, 100}).ok());
  EXPECT_FALSE(tree->ApplyMove(0, {1, 1}, db, &touched).ok());
  // A stale `from` is the engine's to catch: IncrementalTest.RejectsStaleMove.
}

TEST(BinaryTreeTest, HoldsNoCopyOfTheLocations) {
  // The tree keeps row ids and reads locations from the snapshot: at k = 50
  // on a 10^5-user Bay Area snapshot, its arena and leaf row lists together
  // stay below what one copy of every location would cost.
  BayAreaOptions options;
  options.seed = 1;
  const BayAreaGenerator generator(options);
  const LocationDatabase db = generator.Generate(100'000);
  Result<BinaryTree> tree = BinaryTree::Build(
      db, generator.extent(), TreeOptions{.split_threshold = 50});
  ASSERT_TRUE(tree.ok());
  EXPECT_LT(tree->ApproxBytes(), db.size() * sizeof(Point));
}

}  // namespace
}  // namespace pasa
