// Correctness tests for the core policy-aware DP (Section IV-V): the paper's
// running example, and equivalence of every algorithm variant against an
// independent exhaustive oracle.

#include <gtest/gtest.h>

#include "model/cloaking.h"
#include "pasa/anonymizer.h"
#include "pasa/bulk_dp_binary.h"
#include "pasa/bulk_dp_quad.h"
#include "pasa/configuration.h"
#include "pasa/extraction.h"
#include "tests/test_util.h"

namespace pasa {
namespace {

using testing_util::BruteForceOptimalCost;
using testing_util::MakeDb;
using testing_util::RandomDb;

// The Table I / Figure 1 running example, shifted to half-open [0,4)^2
// coordinates: A(0,0) B(0,1) C(0,3) S(2,0) T(3,3).
LocationDatabase PaperExampleDb() {
  return MakeDb({{0, 0}, {0, 1}, {0, 3}, {2, 0}, {3, 3}});
}
constexpr size_t kAlice = 0, kBob = 1, kCarol = 2, kSam = 3, kTom = 4;

MapExtent PaperExtent() { return MapExtent{0, 0, 2}; }

TEST(BulkDpPaperExample, OptimalPolicyMatchesExample8) {
  const LocationDatabase db = PaperExampleDb();
  AnonymizerOptions options;
  options.k = 2;
  Result<Anonymizer> a = Anonymizer::Build(db, PaperExtent(), options);
  ASSERT_TRUE(a.ok()) << a.status().ToString();

  // The policy P2 of Example 8: Alice, Bob, Carol cloak to R3 (the western
  // semi-quadrant), Sam and Tom to R2 (the eastern one). Total cost
  // 3*8 + 2*8 = 40.
  const Rect r3{0, 0, 2, 4};
  const Rect r2{2, 0, 4, 4};
  EXPECT_EQ(a->cost(), 40);
  EXPECT_EQ(a->CloakForRow(kAlice), r3);
  EXPECT_EQ(a->CloakForRow(kBob), r3);
  EXPECT_EQ(a->CloakForRow(kCarol), r3);
  EXPECT_EQ(a->CloakForRow(kSam), r2);
  EXPECT_EQ(a->CloakForRow(kTom), r2);

  // Policy-aware sender 2-anonymity: every cloaking group has >= 2 members.
  EXPECT_GE(a->policy().MinGroupSize(), 2u);
  EXPECT_TRUE(a->policy().IsMasking(db));
}

TEST(BulkDpPaperExample, MatchesBruteForceOracle) {
  const LocationDatabase db = PaperExampleDb();
  TreeOptions tree_options;
  tree_options.split_threshold = 2;
  Result<BinaryTree> tree =
      BinaryTree::Build(db, PaperExtent(), tree_options);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(BruteForceOptimalCost(*tree, db.size(), 2), 40);
}

TEST(BulkDpPaperExample, InfeasibleWhenFewerThanKUsers) {
  const LocationDatabase db = MakeDb({{0, 0}, {1, 1}});
  AnonymizerOptions options;
  options.k = 3;
  Result<Anonymizer> a = Anonymizer::Build(db, PaperExtent(), options);
  ASSERT_FALSE(a.ok());
  EXPECT_EQ(a.status().code(), StatusCode::kInfeasible);
}

TEST(BulkDpPaperExample, EmptySnapshotIsTriviallyFeasible) {
  const LocationDatabase db;
  TreeOptions tree_options;
  Result<BinaryTree> tree =
      BinaryTree::Build(db, PaperExtent(), tree_options);
  ASSERT_TRUE(tree.ok());
  Result<DpMatrix> matrix = ComputeDpMatrix(*tree, 5, DpOptions{});
  ASSERT_TRUE(matrix.ok());
  Result<Cost> cost = matrix->OptimalCost(*tree);
  ASSERT_TRUE(cost.ok());
  EXPECT_EQ(*cost, 0);
}

TEST(BulkDp, KEqualsOneCloaksEveryUserAtItsLeaf) {
  // With k = 1 every singleton group is legal, so the optimum cloaks each
  // user at the deepest (cheapest) node: its own leaf.
  Rng rng(7);
  const MapExtent extent{0, 0, 3};
  const LocationDatabase db = RandomDb(&rng, 6, extent);
  AnonymizerOptions options;
  options.k = 1;
  Result<Anonymizer> a = Anonymizer::Build(db, extent, options);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  Result<BinaryTree> reference =
      BinaryTree::Build(db, extent, TreeOptions{.split_threshold = 1});
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(a->cost(), BruteForceOptimalCost(*reference, db.size(), 1));
}

TEST(BulkDp, AllUsersAtTheSamePoint) {
  std::vector<Point> points(7, Point{3, 3});
  const LocationDatabase db = MakeDb(points);
  AnonymizerOptions options;
  options.k = 3;
  Result<Anonymizer> a = Anonymizer::Build(db, MapExtent{0, 0, 3}, options);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  // All seven share one unsplittable 1x1 cell: the optimum cloaks all of
  // them there at cost 7 * 1.
  EXPECT_EQ(a->cost(), 7);
  EXPECT_GE(a->policy().MinGroupSize(), 3u);
}

// ---------------------------------------------------------------------------
// Property sweep: on random small snapshots, every DP variant agrees with
// the independent exhaustive oracle and with each other, and the extracted
// policy realizes the optimal cost with all invariants intact.
// ---------------------------------------------------------------------------

struct SweepParam {
  uint64_t seed;
  int n;
  int k;
  int log2_side;
};

class DpEquivalenceSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(DpEquivalenceSweep, AllVariantsMatchOracle) {
  const SweepParam p = GetParam();
  Rng rng(p.seed);
  const MapExtent extent{0, 0, p.log2_side};
  const LocationDatabase db = RandomDb(&rng, p.n, extent);

  TreeOptions tree_options;
  tree_options.split_threshold = p.k;
  Result<BinaryTree> tree = BinaryTree::Build(db, extent, tree_options);
  ASSERT_TRUE(tree.ok());
  const Cost oracle = BruteForceOptimalCost(*tree, db.size(), p.k);

  for (const bool pruning : {false, true}) {
    for (const bool two_stage : {false, true}) {
      DpOptions dp{.lemma5_pruning = pruning, .two_stage = two_stage};
      Result<DpMatrix> matrix = ComputeDpMatrix(*tree, p.k, dp);
      if (oracle >= kInfiniteCost) {
        if (matrix.ok()) {
          Result<Cost> cost = matrix->OptimalCost(*tree);
          EXPECT_FALSE(cost.ok());
        }
        continue;
      }
      ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();
      Result<Cost> cost = matrix->OptimalCost(*tree);
      ASSERT_TRUE(cost.ok()) << cost.status().ToString();
      EXPECT_EQ(*cost, oracle)
          << "pruning=" << pruning << " two_stage=" << two_stage;

      Result<ExtractedPolicy> policy =
          ExtractOptimalPolicy(*tree, *matrix, p.k);
      ASSERT_TRUE(policy.ok()) << policy.status().ToString();
      EXPECT_EQ(policy->cost, oracle);
      const CloakingTable table = policy->Table(*tree);
      EXPECT_EQ(table.TotalCost(), oracle);
      EXPECT_TRUE(table.IsMasking(db));
      EXPECT_GE(table.MinGroupSize(), static_cast<size_t>(p.k));
      EXPECT_TRUE(SatisfiesKSummation(*tree, policy->config, p.k));
      EXPECT_EQ(ConfigurationCost(*tree, policy->config), oracle);
    }
  }
}

TEST_P(DpEquivalenceSweep, QuadFirstCutMatchesOracle) {
  const SweepParam p = GetParam();
  Rng rng(p.seed ^ 0xabcdef);
  const MapExtent extent{0, 0, p.log2_side};
  const LocationDatabase db = RandomDb(&rng, p.n, extent);

  TreeOptions tree_options;
  tree_options.split_threshold = p.k;
  Result<QuadTree> tree = QuadTree::Build(db, extent, tree_options);
  ASSERT_TRUE(tree.ok());
  const Cost oracle = BruteForceOptimalCost(*tree, db.size(), p.k);

  Result<QuadDpMatrix> matrix = ComputeQuadDpMatrix(*tree, p.k);
  if (oracle >= kInfiniteCost) {
    if (matrix.ok()) {
      EXPECT_FALSE(matrix->OptimalCost(*tree).ok());
    }
    return;
  }
  ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();
  Result<Cost> cost = matrix->OptimalCost(*tree);
  ASSERT_TRUE(cost.ok());
  EXPECT_EQ(*cost, oracle);

  Result<ExtractedQuadPolicy> policy =
      ExtractOptimalQuadPolicy(*tree, *matrix, p.k);
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  EXPECT_EQ(policy->table.TotalCost(), oracle);
  EXPECT_TRUE(policy->table.IsMasking(db));
  EXPECT_GE(policy->table.MinGroupSize(), static_cast<size_t>(p.k));
  EXPECT_TRUE(SatisfiesKSummation(*tree, policy->config, p.k));

  // The optimized cost-only quad DP must agree with the first cut.
  Result<Cost> fast = OptimalQuadCostFast(*tree, p.k);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  EXPECT_EQ(*fast, oracle);
}

TEST(BulkDpQuadFast, AgreesWithFirstCutAtMediumScale) {
  // Beyond oracle reach: the fast quad DP and the (streamed) first cut must
  // still agree exactly.
  for (const uint64_t seed : {201u, 202u, 203u}) {
    Rng rng(seed);
    const MapExtent extent{0, 0, 6};
    const LocationDatabase db = RandomDb(&rng, 120, extent);
    const int k = 6;
    Result<QuadTree> tree = QuadTree::Build(
        db, extent, TreeOptions{.split_threshold = k});
    ASSERT_TRUE(tree.ok());
    Result<QuadDpMatrix> naive = ComputeQuadDpMatrix(*tree, k);
    Result<Cost> fast = OptimalQuadCostFast(*tree, k);
    ASSERT_TRUE(naive.ok() && fast.ok());
    Result<Cost> naive_cost = naive->OptimalCost(*tree);
    ASSERT_TRUE(naive_cost.ok());
    EXPECT_EQ(*fast, *naive_cost) << "seed " << seed;
  }
}

TEST(BulkDpQuadFast, InfeasibleAndEmptyCases) {
  const LocationDatabase two = MakeDb({{0, 0}, {1, 1}});
  Result<QuadTree> tree =
      QuadTree::Build(two, MapExtent{0, 0, 2}, TreeOptions{});
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(OptimalQuadCostFast(*tree, 3).status().code(),
            StatusCode::kInfeasible);
  Result<QuadTree> empty =
      QuadTree::Build(LocationDatabase(), MapExtent{0, 0, 2}, TreeOptions{});
  ASSERT_TRUE(empty.ok());
  Result<Cost> cost = OptimalQuadCostFast(*empty, 3);
  ASSERT_TRUE(cost.ok());
  EXPECT_EQ(*cost, 0);
}

std::vector<SweepParam> MakeSweep() {
  std::vector<SweepParam> params;
  uint64_t seed = 1;
  for (const int n : {3, 5, 6, 7, 8}) {
    for (const int k : {1, 2, 3}) {
      for (const int log2_side : {2, 3}) {
        params.push_back(SweepParam{seed++, n, k, log2_side});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(RandomSmallSnapshots, DpEquivalenceSweep,
                         ::testing::ValuesIn(MakeSweep()),
                         [](const ::testing::TestParamInfo<SweepParam>& info) {
                           const SweepParam& p = info.param;
                           return "seed" + std::to_string(p.seed) + "_n" +
                                  std::to_string(p.n) + "_k" +
                                  std::to_string(p.k) + "_side" +
                                  std::to_string(1 << p.log2_side);
                         });

// Binary tree with semi-quadrants never costs more than the quad tree on the
// same fully-materialized partition (Section V's comparison).
TEST(BulkDp, BinaryTreeOptimumNeverWorseThanQuadTree) {
  for (uint64_t seed = 100; seed < 112; ++seed) {
    Rng rng(seed);
    const MapExtent extent{0, 0, 3};
    const LocationDatabase db = RandomDb(&rng, 9, extent);
    const int k = 3;
    TreeOptions full{.split_threshold = 1, .max_depth = 64};
    Result<QuadTree> quad = QuadTree::Build(db, extent, full);
    Result<BinaryTree> binary = BinaryTree::Build(db, extent, full);
    ASSERT_TRUE(quad.ok() && binary.ok());

    Result<QuadDpMatrix> quad_matrix = ComputeQuadDpMatrix(*quad, k);
    Result<DpMatrix> binary_matrix =
        ComputeDpMatrix(*binary, k, DpOptions{});
    ASSERT_TRUE(quad_matrix.ok() && binary_matrix.ok());
    Result<Cost> quad_cost = quad_matrix->OptimalCost(*quad);
    Result<Cost> binary_cost = binary_matrix->OptimalCost(*binary);
    ASSERT_TRUE(quad_cost.ok() && binary_cost.ok());
    EXPECT_LE(*binary_cost, *quad_cost) << "seed " << seed;
  }
}

}  // namespace
}  // namespace pasa
