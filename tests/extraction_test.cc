// Extraction's derived group sizes: the anonymity group that
// ExtractedPolicy::GroupSize reads off the configuration equals the number
// of snapshot rows the assignment cloaks at that node, for every live node,
// on random snapshots over a range of k, on a 10^5-user Bay Area snapshot
// and on the policies incremental repair leaves behind.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pasa/extraction.h"
#include "pasa/incremental.h"
#include "tests/test_util.h"
#include "workload/bay_area.h"
#include "workload/movement.h"

namespace pasa {
namespace {

using testing_util::RandomDb;

// GroupSize(node) is the count of rows assigned to `node` for every live
// node: 0 where the node cloaks nothing, at least k elsewhere.
void ExpectGroupSizesCountAssignment(const BinaryTree& tree,
                                     const ExtractedPolicy& policy, int k,
                                     const std::string& label) {
  std::vector<uint32_t> counted(tree.num_nodes(), 0);
  for (const int32_t node : policy.assignment) {
    ASSERT_GE(node, 0) << label;
    ++counted[node];
  }
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    const int32_t id = static_cast<int32_t>(i);
    if (!tree.node(id).live) continue;
    const uint32_t size = policy.GroupSize(tree, id);
    ASSERT_EQ(size, counted[i]) << label << " node " << i;
    if (size > 0) {
      ASSERT_GE(size, static_cast<uint32_t>(k)) << label << " node " << i;
    }
  }
}

ExtractedPolicy Extract(const BinaryTree& tree, int k,
                        const DpOptions& options) {
  Result<DpMatrix> matrix = ComputeDpMatrix(tree, k, options);
  EXPECT_TRUE(matrix.ok()) << matrix.status().ToString();
  Result<ExtractedPolicy> policy = ExtractOptimalPolicy(tree, *matrix, k);
  EXPECT_TRUE(policy.ok()) << policy.status().ToString();
  return *policy;
}

TEST(ExtractionGroupSize, MatchesAssignmentOnRandomSnapshots) {
  uint64_t seed = 700;
  for (const int k : {1, 2, 3, 5, 8, 13, 21}) {
    for (const int n : {0, 40, 400, 3000}) {
      for (const bool pruning : {true, false}) {
        Rng rng(seed++);
        const MapExtent extent{0, 0, 10};
        const LocationDatabase db = RandomDb(&rng, n, extent);
        if (db.size() > 0 && static_cast<int>(db.size()) < k) continue;
        Result<BinaryTree> tree =
            BinaryTree::Build(db, extent, TreeOptions{.split_threshold = k});
        ASSERT_TRUE(tree.ok());
        ExpectGroupSizesCountAssignment(
            *tree, Extract(*tree, k, DpOptions{.lemma5_pruning = pruning}), k,
            "k=" + std::to_string(k) + " n=" + std::to_string(n) +
                " pruning=" + std::to_string(pruning));
      }
    }
  }
}

TEST(ExtractionGroupSize, MatchesAssignmentOnBayArea100k) {
  BayAreaOptions options;
  options.seed = 1;
  const LocationDatabase db = BayAreaGenerator(options).Generate(100'000);
  Result<MapExtent> extent = MapExtent::Covering(db.BoundingBox());
  ASSERT_TRUE(extent.ok());
  Result<BinaryTree> tree =
      BinaryTree::Build(db, *extent, TreeOptions{.split_threshold = 50});
  ASSERT_TRUE(tree.ok());
  ExpectGroupSizesCountAssignment(*tree, Extract(*tree, 50, DpOptions{}), 50,
                                  "bay_area_100k");
}

TEST(ExtractionGroupSize, MatchesAssignmentAfterApplyMoves) {
  BayAreaOptions options;
  options.seed = 3;
  LocationDatabase db = BayAreaGenerator(options).Generate(20'000);
  Result<MapExtent> extent = MapExtent::Covering(db.BoundingBox());
  ASSERT_TRUE(extent.ok());
  const int k = 20;
  Result<IncrementalAnonymizer> inc =
      IncrementalAnonymizer::Build(db, *extent, k, DpOptions{});
  ASSERT_TRUE(inc.ok()) << inc.status().ToString();
  for (int round = 0; round < 4; ++round) {
    MovementOptions movement;
    movement.moving_fraction = 0.02;
    movement.max_distance = 2000.0;
    movement.seed = 60 + round;
    const std::vector<UserMove> moves = DrawMoves(db, *extent, movement);
    ASSERT_TRUE(inc->ApplyMoves(moves).ok());
    ASSERT_TRUE(ApplyMovesToDatabase(moves, &db).ok());
    Result<ExtractedPolicy> policy = inc->ExtractPolicy();
    ASSERT_TRUE(policy.ok()) << policy.status().ToString();
    ExpectGroupSizesCountAssignment(inc->tree(), *policy, k,
                                    "round " + std::to_string(round));
  }
}

}  // namespace
}  // namespace pasa
