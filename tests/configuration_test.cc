// Tests for configurations, the k-summation property (Definition 9), and
// the Lemma 1/2/3 statements connecting configurations to policies.

#include <gtest/gtest.h>

#include "pasa/anonymizer.h"
#include "pasa/bulk_dp_binary.h"
#include "pasa/configuration.h"
#include "pasa/extraction.h"
#include "tests/test_util.h"

namespace pasa {
namespace {

using testing_util::LeafOfRow;
using testing_util::MakeDb;
using testing_util::RandomDb;

TEST(KSummationTest, PassEverythingUpEverywhereSatisfiesButIncomplete) {
  Rng rng(1);
  const MapExtent extent{0, 0, 4};
  const LocationDatabase db = RandomDb(&rng, 30, extent);
  Result<BinaryTree> tree =
      BinaryTree::Build(db, extent, TreeOptions{.split_threshold = 5});
  ASSERT_TRUE(tree.ok());

  Configuration config;
  config.passed_up.assign(tree->num_nodes(), 0);
  for (size_t i = 0; i < tree->num_nodes(); ++i) {
    config.passed_up[i] = tree->node(static_cast<int32_t>(i)).count;
  }
  // C(m) = d(m) everywhere: k-summation holds for any k, cost is 0, but the
  // configuration is incomplete (C(root) != 0) so it is not a usable policy.
  for (const int k : {1, 3, 10, 100}) {
    EXPECT_TRUE(SatisfiesKSummation(*tree, config, k)) << k;
  }
  EXPECT_EQ(ConfigurationCost(*tree, config), 0);
  EXPECT_NE(config.C(BinaryTree::kRootId), 0u);
}

TEST(KSummationTest, CloakingFewerThanKAtANodeViolates) {
  const LocationDatabase db = MakeDb({{0, 0}, {3, 3}, {1, 2}});
  const MapExtent extent{0, 0, 2};
  Result<BinaryTree> tree =
      BinaryTree::Build(db, extent, TreeOptions{.split_threshold = 1});
  ASSERT_TRUE(tree.ok());

  // Everyone cloaked at the root: group of 3.
  std::vector<int32_t> all_root(db.size(), BinaryTree::kRootId);
  const Configuration ok = ConfigurationFromAssignment(*tree, all_root);
  EXPECT_TRUE(SatisfiesKSummation(*tree, ok, 3));
  EXPECT_FALSE(SatisfiesKSummation(*tree, ok, 4));

  // One user cloaked at her leaf (group of 1), rest at the root.
  std::vector<int32_t> split = all_root;
  const std::vector<int32_t> leaf_of = LeafOfRow(*tree, db.size());
  split[0] = leaf_of[0];
  const Configuration bad = ConfigurationFromAssignment(*tree, split);
  EXPECT_TRUE(SatisfiesKSummation(*tree, bad, 1));
  EXPECT_FALSE(SatisfiesKSummation(*tree, bad, 2));
}

TEST(ConfigurationTest, CostMatchesExplicitPolicyCost) {
  // Lemma 2: the configuration cost formula equals the summed cloak areas
  // of any represented policy.
  Rng rng(2);
  const MapExtent extent{0, 0, 4};
  const LocationDatabase db = RandomDb(&rng, 40, extent);
  Result<BinaryTree> tree =
      BinaryTree::Build(db, extent, TreeOptions{.split_threshold = 4});
  ASSERT_TRUE(tree.ok());

  // Random masking assignment: each row to a random ancestor.
  const std::vector<int32_t> leaf_of = LeafOfRow(*tree, db.size());
  std::vector<int32_t> assignment(db.size());
  int64_t explicit_cost = 0;
  for (size_t row = 0; row < db.size(); ++row) {
    const auto chain = testing_util::AncestorChain(*tree, leaf_of[row]);
    assignment[row] =
        chain[static_cast<size_t>(rng.NextBounded(chain.size()))];
    explicit_cost += tree->node(assignment[row]).region.Area();
  }
  const Configuration config = ConfigurationFromAssignment(*tree, assignment);
  EXPECT_EQ(ConfigurationCost(*tree, config), explicit_cost);
}

TEST(ConfigurationTest, ExtractionRoundTripsThroughAssignment) {
  // The configuration derived from the extracted policy's assignment equals
  // the configuration the extractor reports.
  Rng rng(3);
  const MapExtent extent{0, 0, 4};
  const LocationDatabase db = RandomDb(&rng, 50, extent);
  const int k = 4;
  Result<BinaryTree> tree =
      BinaryTree::Build(db, extent, TreeOptions{.split_threshold = k});
  ASSERT_TRUE(tree.ok());
  Result<DpMatrix> matrix = ComputeDpMatrix(*tree, k, DpOptions{});
  ASSERT_TRUE(matrix.ok());
  Result<ExtractedPolicy> policy = ExtractOptimalPolicy(*tree, *matrix, k);
  ASSERT_TRUE(policy.ok());

  const Configuration derived =
      ConfigurationFromAssignment(*tree, policy->assignment);
  for (size_t i = 0; i < tree->num_nodes(); ++i) {
    if (!tree->node(static_cast<int32_t>(i)).live) continue;
    EXPECT_EQ(derived.passed_up[i], policy->config.passed_up[i]) << i;
  }
}

TEST(ConfigurationTest, QuadVariantsAgreeWithBinarySemantics) {
  Rng rng(4);
  const MapExtent extent{0, 0, 3};
  const LocationDatabase db = RandomDb(&rng, 20, extent);
  Result<QuadTree> tree =
      QuadTree::Build(db, extent, TreeOptions{.split_threshold = 2});
  ASSERT_TRUE(tree.ok());

  std::vector<int32_t> all_root(db.size(), QuadTree::kRootId);
  const Configuration config = ConfigurationFromAssignment(*tree, all_root);
  EXPECT_TRUE(SatisfiesKSummation(*tree, config, static_cast<int>(db.size())));
  EXPECT_FALSE(
      SatisfiesKSummation(*tree, config, static_cast<int>(db.size()) + 1));
  EXPECT_EQ(ConfigurationCost(*tree, config),
            static_cast<Cost>(db.size()) *
                tree->node(QuadTree::kRootId).region.Area());
  EXPECT_EQ(config.C(QuadTree::kRootId), 0u);
}

TEST(DpRowTest, CostAtSemantics) {
  DpRow row;
  row.dense = {100, 80, 60};
  const uint32_t d = 9;
  EXPECT_EQ(row.CostAt(0, d), 100);
  EXPECT_EQ(row.CostAt(2, d), 60);
  EXPECT_EQ(row.CostAt(9, d), 0);              // implicit pass-everything
  EXPECT_EQ(row.CostAt(5, d), kInfiniteCost);  // outside F(m)
  DpRow empty;
  EXPECT_EQ(empty.CostAt(0, 3), kInfiniteCost);
  EXPECT_EQ(empty.CostAt(3, 3), 0);
}

TEST(DpMatrixTest, ApproxBytesCountsCostsAndPasses) {
  DpMatrix matrix;
  matrix.rows.resize(3);
  matrix.rows[0].dense = {70, 50, 30};  // internal: one pass per cost
  matrix.rows[0].children_pass = {4, 9, 9};
  matrix.rows[1].dense = {20, 10};  // leaf: costs only
  ASSERT_EQ(matrix.rows.capacity(), 3u);
  ASSERT_EQ(matrix.rows[0].dense.capacity(), 3u);
  ASSERT_EQ(matrix.rows[0].children_pass.capacity(), 3u);
  ASSERT_EQ(matrix.rows[1].dense.capacity(), 2u);
  EXPECT_EQ(matrix.ApproxBytes(),
            3 * sizeof(DpRow) + 5 * sizeof(Cost) + 3 * sizeof(uint32_t));
}

}  // namespace
}  // namespace pasa
