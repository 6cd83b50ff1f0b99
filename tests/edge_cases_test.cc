// Consolidated edge-case coverage across modules: degenerate extents, depth
// caps, empty inputs, argument validation, and unusual-but-legal configs.

#include <gtest/gtest.h>

#include "index/binary_tree.h"
#include "index/morton.h"
#include "index/quad_tree.h"
#include "lbs/poi.h"
#include "parallel/runner.h"
#include "pasa/anonymizer.h"
#include "policies/k_sharing.h"
#include "tests/test_util.h"
#include "workload/bay_area.h"

namespace pasa {
namespace {

using testing_util::MakeDb;
using testing_util::RandomDb;

TEST(EdgeMorton, SingleCellMap) {
  const LocationDatabase db = MakeDb({{5, 5}, {5, 5}});
  const MapExtent extent{5, 5, 0};  // 1x1 map at offset (5,5)
  Result<MortonIndex> index = MortonIndex::Build(db, extent);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->max_depth(), 0);
  EXPECT_EQ(index->CountQuadrant(QuadPath{0, 0}), 2u);
  EXPECT_EQ(index->RegionOf(QuadPath{0, 0}), (Rect{5, 5, 6, 6}));
}

TEST(EdgeMorton, OffsetOriginsWork) {
  const LocationDatabase db = MakeDb({{-100, -200}, {-97, -199}});
  Result<MapExtent> extent = MapExtent::Covering(db.BoundingBox());
  ASSERT_TRUE(extent.ok());
  Result<MortonIndex> index = MortonIndex::Build(db, *extent);
  ASSERT_TRUE(index.ok());
  for (const auto& row : db.rows()) {
    const QuadPath leaf = index->PathForPoint(row.location,
                                              index->max_depth());
    EXPECT_TRUE(index->RegionOf(leaf).Contains(row.location));
  }
}

TEST(EdgeTree, MaxDepthCapsMaterialization) {
  Rng rng(1);
  const MapExtent extent{0, 0, 8};
  const LocationDatabase db = RandomDb(&rng, 500, extent);
  TreeOptions options;
  options.split_threshold = 2;
  options.max_depth = 4;
  Result<BinaryTree> tree = BinaryTree::Build(db, extent, options);
  ASSERT_TRUE(tree.ok());
  EXPECT_LE(tree->Height(), 4);
  // The DP still produces a valid policy on the truncated tree.
  Result<DpMatrix> matrix = ComputeDpMatrix(*tree, 2, DpOptions{});
  ASSERT_TRUE(matrix.ok());
  Result<ExtractedPolicy> policy = ExtractOptimalPolicy(*tree, *matrix, 2);
  ASSERT_TRUE(policy.ok());
  const CloakingTable table = policy->Table(*tree);
  EXPECT_TRUE(table.IsMasking(db));
  EXPECT_GE(table.MinGroupSize(), 2u);
}

TEST(EdgeTree, ZeroThresholdRejected) {
  const LocationDatabase db = MakeDb({{0, 0}});
  TreeOptions options;
  options.split_threshold = 0;
  EXPECT_FALSE(BinaryTree::Build(db, MapExtent{0, 0, 2}, options).ok());
  EXPECT_FALSE(QuadTree::Build(db, MapExtent{0, 0, 2}, options).ok());
}

TEST(EdgeTree, PointsOutsideExtentRejected) {
  const LocationDatabase db = MakeDb({{100, 100}});
  TreeOptions options;
  EXPECT_FALSE(BinaryTree::Build(db, MapExtent{0, 0, 3}, options).ok());
  EXPECT_FALSE(QuadTree::Build(db, MapExtent{0, 0, 3}, options).ok());
}

TEST(EdgeParallel, ZeroJurisdictionsRejected) {
  Rng rng(2);
  const MapExtent extent{0, 0, 4};
  const LocationDatabase db = RandomDb(&rng, 50, extent);
  ParallelRunOptions options;
  options.k = 5;
  options.num_jurisdictions = 0;
  EXPECT_EQ(RunPartitioned(db, extent, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EdgeParallel, MoreJurisdictionsThanGroups) {
  // 12 users, k=5: at most 2 groups can exist; asking for 64 jurisdictions
  // must degrade gracefully and stay optimal.
  Rng rng(3);
  const MapExtent extent{0, 0, 4};
  const LocationDatabase db = RandomDb(&rng, 12, extent);
  ParallelRunOptions options;
  options.k = 5;
  options.num_jurisdictions = 64;
  Result<ParallelRunReport> report = RunPartitioned(db, extent, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->master_table.IsMasking(db));
  EXPECT_GE(report->master_table.MinGroupSize(), 5u);
}

TEST(EdgeKSharing, DuplicateArrivalsAndFullOrder) {
  const LocationDatabase db = MakeDb({{0, 0}, {2, 0}, {5, 0}, {9, 0}});
  const KSharingPolicy policy(2);
  // Duplicate arrivals are idempotent; a full order cloaks everybody.
  Result<CloakingTable> table = policy.CloakInOrder(db, {0, 0, 1, 2, 3});
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(table->IsMasking(db));
  EXPECT_GE(table->MinGroupSize(), 2u);
  EXPECT_FALSE(policy.CloakInOrder(db, {17}).ok());  // out of range
}

TEST(EdgeKSharing, BelowK) {
  const LocationDatabase db = MakeDb({{0, 0}});
  EXPECT_EQ(KSharingPolicy(2).CloakInOrder(db, {0}).status().code(),
            StatusCode::kInfeasible);
}

TEST(EdgePoi, CustomCellSizeAndSinglePoi) {
  PoiDatabase db({{1, {50, 50}, "rest"}}, /*cell_size=*/7);
  const auto hits = db.NearestToCloak(Rect{0, 0, 10, 10}, "rest", 3);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 1);
}

TEST(EdgeWorkload, ZeroUsers) {
  BayAreaOptions options;
  options.log2_map_side = 10;
  options.num_intersections = 10;
  options.users_per_intersection = 2;
  const BayAreaGenerator gen(options);
  EXPECT_TRUE(gen.Generate(0).empty());
  EXPECT_TRUE(BayAreaGenerator::Sample(gen.Generate(50), 0, 1).empty());
}

TEST(EdgeAnonymizer, EmptySnapshotWithDerivedExtentFails) {
  // An empty snapshot has no bounding box to derive an extent from.
  AnonymizerOptions options;
  options.k = 1;
  EXPECT_FALSE(Anonymizer::Build(LocationDatabase(), options).ok());
  // With an explicit extent it succeeds trivially.
  Result<Anonymizer> a =
      Anonymizer::Build(LocationDatabase(), MapExtent{0, 0, 3}, options);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->cost(), 0);
}

TEST(EdgeAnonymizer, NegativeCoordinates) {
  const LocationDatabase db =
      MakeDb({{-8, -8}, {-7, -8}, {-8, -7}, {-1, -1}});
  AnonymizerOptions options;
  options.k = 2;
  Result<Anonymizer> a = Anonymizer::Build(db, options);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_TRUE(a->policy().IsMasking(db));
  EXPECT_GE(a->policy().MinGroupSize(), 2u);
}

}  // namespace
}  // namespace pasa
