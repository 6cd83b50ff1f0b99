// Tests for the spatial index substrate: the Morton range-counting index and
// the lazily materialized quad and binary (semi-quadrant) trees, including
// the mutation path used by incremental maintenance.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <utility>

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

// The split-by-geometry builder that BinaryTree::BuildRooted used before it
// sorted trie keys: every row starts in the root's leaf list and each split
// copies a leaf's rows into its two children by region. Kept verbatim (as a
// standalone struct) as the reference the sorted build must match node for
// node.
namespace oracle {

using Node = BinaryTree::Node;
using NodeKind = BinaryTree::NodeKind;

struct Tree {
  TreeOptions options_;
  std::vector<Node> nodes_;
  std::vector<std::vector<uint32_t>> leaf_rows_;
  size_t live_nodes_ = 0;

  struct SplitPlan {
    Rect first;
    Rect second;
    NodeKind child_kind = NodeKind::kSquare;
  };

  bool CanSplit(int32_t id) const {
    const Node& n = nodes_[id];
    if (!n.IsLeaf() || !n.live) return false;
    if (n.count < static_cast<uint32_t>(options_.split_threshold)) {
      return false;
    }
    if (n.depth >= options_.max_depth) return false;
    switch (n.kind) {
      case NodeKind::kSquare:
        return n.region.width() >= 2;
      case NodeKind::kVerticalSemi:
        return n.region.height() >= 2;
      case NodeKind::kHorizontalSemi:
        return n.region.width() >= 2;
    }
    return false;
  }

  SplitPlan PlanSplit(int32_t id, const LocationDatabase& db) const {
    const Node& n = nodes_[id];
    SplitPlan plan;
    switch (n.kind) {
      case NodeKind::kSquare: {
        bool vertical = true;
        if (options_.orientation == SplitOrientation::kAdaptive) {
          const Coord midx = n.region.x1 + n.region.width() / 2;
          const Coord midy = n.region.y1 + n.region.height() / 2;
          int64_t west = 0, south = 0;
          for (const uint32_t row : leaf_rows_[id]) {
            const Point& p = db.row(row).location;
            if (p.x < midx) ++west;
            if (p.y < midy) ++south;
          }
          const int64_t total = static_cast<int64_t>(n.count);
          const int64_t imbalance_v = std::abs(2 * west - total);
          const int64_t imbalance_h = std::abs(2 * south - total);
          vertical = imbalance_v <= imbalance_h;
        }
        if (vertical) {
          plan = {n.region.WestHalf(), n.region.EastHalf(),
                  NodeKind::kVerticalSemi};
        } else {
          plan = {n.region.SouthHalf(), n.region.NorthHalf(),
                  NodeKind::kHorizontalSemi};
        }
        break;
      }
      case NodeKind::kVerticalSemi:
        plan = {n.region.SouthHalf(), n.region.NorthHalf(), NodeKind::kSquare};
        break;
      case NodeKind::kHorizontalSemi:
        plan = {n.region.WestHalf(), n.region.EastHalf(), NodeKind::kSquare};
        break;
    }
    return plan;
  }

  void SplitLeaf(int32_t id, const LocationDatabase& db) {
    const SplitPlan plan = PlanSplit(id, db);
    const int32_t first = static_cast<int32_t>(nodes_.size());
    for (int which = 0; which < 2; ++which) {
      Node child;
      child.region = which == 0 ? plan.first : plan.second;
      child.parent = id;
      child.depth = static_cast<int16_t>(nodes_[id].depth + 1);
      child.kind = plan.child_kind;
      nodes_.push_back(child);
      leaf_rows_.emplace_back();
    }
    live_nodes_ += 2;
    nodes_[id].first_child = first;
    std::vector<uint32_t>& rows = leaf_rows_[id];
    const Rect first_region = nodes_[first].region;
    for (const uint32_t row : rows) {
      const int which = first_region.Contains(db.row(row).location) ? 0 : 1;
      leaf_rows_[first + which].push_back(row);
      ++nodes_[first + which].count;
    }
    rows.clear();
    rows.shrink_to_fit();
  }
};

Tree BuildRooted(const LocationDatabase& db, const Rect& root_region,
                 NodeKind root_kind, const TreeOptions& options) {
  Tree tree;
  tree.options_ = options;
  Node root;
  root.region = root_region;
  root.count = static_cast<uint32_t>(db.size());
  root.kind = root_kind;
  tree.nodes_.push_back(root);
  tree.leaf_rows_.emplace_back();
  tree.leaf_rows_[0].reserve(db.size());
  for (uint32_t i = 0; i < db.size(); ++i) tree.leaf_rows_[0].push_back(i);
  tree.live_nodes_ = 1;

  std::vector<int32_t> stack = {BinaryTree::kRootId};
  while (!stack.empty()) {
    const int32_t id = stack.back();
    stack.pop_back();
    if (tree.CanSplit(id)) {
      tree.SplitLeaf(id, db);
      stack.push_back(tree.nodes_[id].first_child);
      stack.push_back(tree.nodes_[id].first_child + 1);
    }
  }
  return tree;
}

}  // namespace oracle

// Builds `db` both ways and requires the same tree: every node's region,
// links, count, depth, kind and liveness, and every leaf's row list.
void ExpectBuildMatchesOracle(const LocationDatabase& db, const Rect& root,
                              BinaryTree::NodeKind kind,
                              const TreeOptions& options) {
  SCOPED_TRACE("root " + root.ToString() + " k=" +
               std::to_string(options.split_threshold) + " n=" +
               std::to_string(db.size()));
  Result<BinaryTree> tree = BinaryTree::BuildRooted(db, root, kind, options);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  const oracle::Tree want = oracle::BuildRooted(db, root, kind, options);
  ASSERT_EQ(tree->num_nodes(), want.nodes_.size());
  EXPECT_EQ(tree->num_live_nodes(), want.live_nodes_);
  for (size_t i = 0; i < want.nodes_.size(); ++i) {
    const int32_t id = static_cast<int32_t>(i);
    const BinaryTree::Node& got = tree->node(id);
    const BinaryTree::Node& expected = want.nodes_[i];
    ASSERT_EQ(got.region, expected.region) << "node " << id;
    ASSERT_EQ(got.parent, expected.parent) << "node " << id;
    ASSERT_EQ(got.first_child, expected.first_child) << "node " << id;
    ASSERT_EQ(got.count, expected.count) << "node " << id;
    ASSERT_EQ(got.depth, expected.depth) << "node " << id;
    ASSERT_EQ(got.kind, expected.kind) << "node " << id;
    ASSERT_EQ(got.live, expected.live) << "node " << id;
    ASSERT_EQ(tree->LeafRows(id), want.leaf_rows_[i]) << "node " << id;
  }
}

// `n` points uniform over `region`.
LocationDatabase RandomDbIn(Rng* rng, size_t n, const Rect& region) {
  std::vector<Point> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    points.push_back(
        Point{region.x1 + static_cast<Coord>(rng->NextBounded(region.width())),
              region.y1 +
                  static_cast<Coord>(rng->NextBounded(region.height()))});
  }
  return MakeDb(points);
}

constexpr SplitOrientation kOrientations[] = {SplitOrientation::kVerticalOnly,
                                              SplitOrientation::kAdaptive};

TEST(BinaryTreeOracleTest, RandomSquareMaps) {
  Rng rng(2701);
  for (const int log2_side : {0, 1, 3, 6, 10, 17}) {
    for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{300},
                           size_t{3000}}) {
      const MapExtent extent{-37 * (log2_side + 1), 101, log2_side};
      const LocationDatabase db = RandomDb(&rng, n, extent);
      for (const int k : {1, 2, 5, 50}) {
        for (const SplitOrientation orientation : kOrientations) {
          ExpectBuildMatchesOracle(
              db, extent.ToRect(), BinaryTree::NodeKind::kSquare,
              TreeOptions{.split_threshold = k, .orientation = orientation});
        }
      }
    }
  }
}

TEST(BinaryTreeOracleTest, SemiQuadrantRoots) {
  Rng rng(2702);
  for (const Coord w : {1, 2, 16, 1024}) {
    const Rect vertical{40 * w, -8 * w, 41 * w, -6 * w};  // w x 2w
    const Rect horizontal{-3 * w, 5 * w, -1 * w, 6 * w};  // 2w x w
    for (const size_t n : {size_t{5}, size_t{400}, size_t{2500}}) {
      const LocationDatabase vdb = RandomDbIn(&rng, n, vertical);
      const LocationDatabase hdb = RandomDbIn(&rng, n, horizontal);
      for (const int k : {1, 3, 20}) {
        for (const SplitOrientation orientation : kOrientations) {
          const TreeOptions options{.split_threshold = k,
                                    .orientation = orientation};
          ExpectBuildMatchesOracle(vdb, vertical,
                                   BinaryTree::NodeKind::kVerticalSemi,
                                   options);
          ExpectBuildMatchesOracle(hdb, horizontal,
                                   BinaryTree::NodeKind::kHorizontalSemi,
                                   options);
        }
      }
    }
  }
}

TEST(BinaryTreeOracleTest, CrowdedCellsAtMaxDepth) {
  // Side-1 cells holding more than k users on one point stop splitting on
  // geometry, with their rows interleaved in id order with other cells'.
  Rng rng(2703);
  const MapExtent extent{0, 0, 4};
  std::vector<Point> points;
  for (int i = 0; i < 600; ++i) {
    const int cell = static_cast<int>(rng.NextBounded(5));
    points.push_back(cell < 4 ? Point{3 * cell, 15 - 2 * cell}
                              : Point{static_cast<Coord>(rng.NextBounded(16)),
                                      static_cast<Coord>(rng.NextBounded(16))});
  }
  const LocationDatabase db = MakeDb(points);
  for (const int k : {2, 10, 50}) {
    for (const SplitOrientation orientation : kOrientations) {
      ExpectBuildMatchesOracle(
          db, extent.ToRect(), BinaryTree::NodeKind::kSquare,
          TreeOptions{.split_threshold = k, .orientation = orientation});
    }
  }
}

TEST(BinaryTreeOracleTest, SmallMaxDepth) {
  Rng rng(2704);
  const MapExtent extent{5, 5, 9};
  const LocationDatabase db = RandomDb(&rng, 2000, extent);
  for (const int max_depth : {0, 1, 2, 5}) {
    for (const SplitOrientation orientation : kOrientations) {
      ExpectBuildMatchesOracle(db, extent.ToRect(),
                               BinaryTree::NodeKind::kSquare,
                               TreeOptions{.split_threshold = 3,
                                           .max_depth = max_depth,
                                           .orientation = orientation});
    }
  }
}

TEST(BinaryTreeOracleTest, WideKeysAtLog2Side31) {
  // 62 key bits: 4 users still pack key and row into one word, 5 or more
  // take the (key, row) pair path.
  Rng rng(2705);
  const MapExtent extent{-(Coord{1} << 30), 7, 31};
  for (const size_t n : {size_t{4}, size_t{5}, size_t{3000}}) {
    const LocationDatabase db = RandomDb(&rng, n, extent);
    for (const int k : {1, 4, 30}) {
      for (const SplitOrientation orientation : kOrientations) {
        ExpectBuildMatchesOracle(
            db, extent.ToRect(), BinaryTree::NodeKind::kSquare,
            TreeOptions{.split_threshold = k, .orientation = orientation});
      }
    }
  }
}

TEST(BinaryTreeOracleTest, BayAreaSnapshot) {
  BayAreaOptions options;
  options.seed = 1;
  const BayAreaGenerator generator(options);
  const LocationDatabase db = generator.Generate(100'000);
  for (const SplitOrientation orientation : kOrientations) {
    ExpectBuildMatchesOracle(
        db, generator.extent().ToRect(), BinaryTree::NodeKind::kSquare,
        TreeOptions{.split_threshold = 50, .orientation = orientation});
  }
}

TEST(BinaryTreeTest, RejectsRootsThatAreNotTreeNodes) {
  const LocationDatabase db = MakeDb({{0, 0}, {1, 1}});
  const TreeOptions options{.split_threshold = 1};
  using Kind = BinaryTree::NodeKind;
  // Sides that are not powers of two.
  EXPECT_EQ(BinaryTree::BuildRooted(db, Rect{0, 0, 3, 3}, Kind::kSquare,
                                    options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(
      BinaryTree::BuildRooted(db, Rect{0, 0, 6, 12}, Kind::kVerticalSemi,
                              options)
          .ok());
  // Power-of-two sides in another kind's shape.
  EXPECT_FALSE(
      BinaryTree::BuildRooted(db, Rect{0, 0, 4, 2}, Kind::kSquare, options)
          .ok());
  EXPECT_FALSE(BinaryTree::BuildRooted(db, Rect{0, 0, 4, 4},
                                       Kind::kVerticalSemi, options)
                   .ok());
  EXPECT_FALSE(BinaryTree::BuildRooted(db, Rect{0, 0, 2, 4},
                                       Kind::kHorizontalSemi, options)
                   .ok());
  EXPECT_TRUE(BinaryTree::BuildRooted(db, Rect{0, 0, 4, 2},
                                      Kind::kHorizontalSemi, options)
                  .ok());
}

TEST(BinaryTreeTest, CollapseReleasesAbandonedLeafRows) {
  // Five users fill the west half (k = 4) while the east half is empty. One
  // moves east and the west half holds four, still split; the next leaves
  // three and collapses it.
  const MapExtent extent{0, 0, 3};
  LocationDatabase db = MakeDb({{0, 0}, {1, 3}, {2, 6}, {3, 1}, {0, 7}});
  Result<BinaryTree> tree =
      BinaryTree::Build(db, extent, TreeOptions{.split_threshold = 4});
  ASSERT_TRUE(tree.ok());
  const int32_t west = tree->node(BinaryTree::kRootId).first_child;
  ASSERT_FALSE(tree->node(west).IsLeaf());

  std::vector<BinaryTree::Touch> touched;
  ASSERT_TRUE(db.MoveRow(0, {6, 6}).ok());
  ASSERT_TRUE(tree->ApplyMove(0, {0, 0}, db, &touched).ok());
  ASSERT_FALSE(tree->node(west).IsLeaf());

  const uint64_t before = tree->ApproxBytes();
  touched.clear();
  ASSERT_TRUE(db.MoveRow(1, {7, 1}).ok());
  ASSERT_TRUE(tree->ApplyMove(1, {1, 3}, db, &touched).ok());
  ASSERT_TRUE(tree->node(west).IsLeaf());
  size_t abandoned = 0;
  for (size_t id = 0; id < tree->num_nodes(); ++id) {
    if (tree->node(static_cast<int32_t>(id)).live) continue;
    ++abandoned;
    EXPECT_EQ(tree->LeafRows(static_cast<int32_t>(id)).capacity(), 0u)
        << "node " << id;
  }
  EXPECT_GT(abandoned, 0u);
  EXPECT_LT(tree->ApproxBytes(), before);
  ExpectLeavesPartitionAndCountsConsistent(*tree, db);
}

// Walks `path` down from the root: the node it names, or -1.
int32_t FollowPath(const BinaryTree& tree, TreePath path) {
  int32_t id = BinaryTree::kRootId;
  for (int level = path.depth() - 1; level >= 0; --level) {
    const BinaryTree::Node& n = tree.node(id);
    if (n.IsLeaf()) return -1;
    id = n.first_child + static_cast<int32_t>((path.turns() >> level) & 1);
  }
  return id;
}

TEST(BinaryTreeTest, PathToWalksBackDownToEveryNode) {
  // A random map, and users crowded on one point of a log2-side-31 map,
  // which splits down to side-1 cells at the deepest level a tree reaches.
  Rng rng(2706);
  const MapExtent small{0, 0, 9};
  const MapExtent wide{-(Coord{1} << 30), 7, 31};
  const LocationDatabase crowded =
      MakeDb({{5, 9}, {5, 9}, {5, 9}, {6, 9}, {-(Coord{1} << 30), 7}});
  for (const auto& [db, extent] :
       {std::pair{RandomDb(&rng, 3000, small), small},
        std::pair{crowded, wide}}) {
    Result<BinaryTree> tree =
        BinaryTree::Build(db, extent, TreeOptions{.split_threshold = 2});
    ASSERT_TRUE(tree.ok());
    int deepest = 0;
    for (size_t i = 0; i < tree->num_nodes(); ++i) {
      const int32_t id = static_cast<int32_t>(i);
      if (!tree->node(id).live) continue;
      const TreePath path = tree->PathTo(id);
      ASSERT_TRUE(path.known()) << "node " << id;
      EXPECT_EQ(path.depth(), tree->node(id).depth) << "node " << id;
      EXPECT_EQ(FollowPath(*tree, path), id) << path.ToString();
      deepest = std::max(deepest, path.depth());
    }
    EXPECT_EQ(deepest, tree->Height());
    EXPECT_EQ(tree->PathTo(BinaryTree::kRootId).ToString(), "r");
    EXPECT_FALSE(tree->PathTo(-1).known());
    EXPECT_FALSE(
        tree->PathTo(static_cast<int32_t>(tree->num_nodes())).known());
  }
  Result<BinaryTree> deep =
      BinaryTree::Build(crowded, wide, TreeOptions{.split_threshold = 2});
  ASSERT_TRUE(deep.ok());
  EXPECT_EQ(deep->Height(), 62);
}

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
