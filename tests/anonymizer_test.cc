// Unit tests for the Anonymizer facade and the BulkPolicyAlgorithm adapter.

#include <gtest/gtest.h>

#include "pasa/anonymizer.h"
#include "tests/test_util.h"

namespace pasa {
namespace {

using testing_util::MakeDb;
using testing_util::RandomDb;

TEST(AnonymizerTest, RejectsBadOptions) {
  const LocationDatabase db = MakeDb({{0, 0}, {1, 1}});
  AnonymizerOptions options;
  options.k = 0;
  EXPECT_EQ(Anonymizer::Build(db, MapExtent{0, 0, 2}, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(AnonymizerTest, DerivedExtentCoversSnapshot) {
  Rng rng(5);
  const LocationDatabase db = RandomDb(&rng, 40, MapExtent{100, 200, 5});
  AnonymizerOptions options;
  options.k = 4;
  Result<Anonymizer> a = Anonymizer::Build(db, options);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_TRUE(a->policy().IsMasking(db));
  EXPECT_GE(a->policy().MinGroupSize(), 4u);
}

TEST(AnonymizerTest, SplitThresholdOverrideChangesTreeNotSafety) {
  Rng rng(6);
  const MapExtent extent{0, 0, 5};
  const LocationDatabase db = RandomDb(&rng, 200, extent);
  const int k = 5;
  // A much coarser tree than the anonymizer's threshold-k one.
  Result<BinaryTree> coarse =
      BinaryTree::Build(db, extent, TreeOptions{.split_threshold = 50});
  ASSERT_TRUE(coarse.ok());
  Result<DpMatrix> matrix = ComputeDpMatrix(*coarse, k, DpOptions{});
  ASSERT_TRUE(matrix.ok());
  Result<ExtractedPolicy> a = ExtractOptimalPolicy(*coarse, *matrix, k);
  ASSERT_TRUE(a.ok());
  EXPECT_GE(a->Table(*coarse).MinGroupSize(), 5u);

  AnonymizerOptions fine;
  fine.k = k;
  Result<Anonymizer> b = Anonymizer::Build(db, extent, fine);
  ASSERT_TRUE(b.ok());
  // The finer tree only adds cloak candidates: its optimum cannot be worse.
  EXPECT_LE(b->cost(), a->cost);
}

TEST(AnonymizerTest, RequestIdsAreFreshAndSequentialPerEngine) {
  const LocationDatabase db =
      MakeDb({{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  AnonymizerOptions options;
  options.k = 2;
  Result<Anonymizer> a = Anonymizer::Build(db, MapExtent{0, 0, 1}, options);
  ASSERT_TRUE(a.ok());
  const ServiceRequest sr{0, {0, 0}, {}};
  Result<AnonymizedRequest> first = a->Anonymize(sr);
  Result<AnonymizedRequest> second = a->Anonymize(sr);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_NE(first->rid, second->rid);
  EXPECT_EQ(first->cloak, second->cloak);  // same snapshot, same policy
}

TEST(AnonymizerTest, UnknownSenderAndStaleLocation) {
  const LocationDatabase db =
      MakeDb({{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  AnonymizerOptions options;
  options.k = 2;
  Result<Anonymizer> a = Anonymizer::Build(db, MapExtent{0, 0, 1}, options);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->Anonymize(ServiceRequest{99, {0, 0}, {}}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(a->Anonymize(ServiceRequest{0, {1, 1}, {}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(a->CloakForUser(99).status().code(), StatusCode::kNotFound);
}

TEST(AnonymizerTest, AdapterMatchesDirectBuild) {
  Rng rng(7);
  const MapExtent extent{0, 0, 5};
  const LocationDatabase db = RandomDb(&rng, 150, extent);
  const int k = 6;
  const PolicyAwareOptimumAlgorithm algorithm(extent);
  EXPECT_EQ(algorithm.name(), "PolicyAware-OPT");
  Result<CloakingTable> via_adapter = algorithm.Cloak(db, k);
  AnonymizerOptions options;
  options.k = k;
  Result<Anonymizer> direct = Anonymizer::Build(db, extent, options);
  ASSERT_TRUE(via_adapter.ok() && direct.ok());
  EXPECT_EQ(via_adapter->TotalCost(), direct->cost());
  for (size_t row = 0; row < db.size(); ++row) {
    EXPECT_EQ(via_adapter->cloak(row), direct->CloakForRow(row));
  }
}

TEST(AnonymizerTest, ExactlyKUsersCloakTogether) {
  // |D| == k forces a single group; the optimum is the tightest node
  // containing everyone.
  const LocationDatabase db = MakeDb({{0, 0}, {0, 1}, {1, 0}});
  AnonymizerOptions options;
  options.k = 3;
  Result<Anonymizer> a = Anonymizer::Build(db, MapExtent{0, 0, 3}, options);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->policy().MinGroupSize(), 3u);
  const Rect cloak = a->CloakForRow(0);
  EXPECT_EQ(a->CloakForRow(1), cloak);
  EXPECT_EQ(a->CloakForRow(2), cloak);
  // All three fit in the 2x2 SW quadrant; its west vertical semi (1x2) even
  // fails to contain (1,0), so the optimum is the 2x2 quadrant or smaller.
  EXPECT_LE(cloak.Area(), 4);
}

}  // namespace
}  // namespace pasa
