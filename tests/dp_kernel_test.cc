// Kernel equivalence for Bulk_dp's two-stage fill: every (min,+)
// convolution variant this CPU supports fills every matrix row (every cost,
// every children_pass) bit-identically to the default variant, on
// random snapshots over a range of k, on a 10^5-user Bay Area snapshot, and
// on the matrix incremental repair leaves behind.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pasa/bulk_dp_binary.h"
#include "pasa/incremental.h"
#include "pasa/minplus.h"
#include "tests/test_util.h"
#include "workload/bay_area.h"
#include "workload/movement.h"

namespace pasa {
namespace {

using testing_util::RandomDb;

std::vector<MinPlusIsa> SupportedIsas() {
  std::vector<MinPlusIsa> isas;
  for (const MinPlusIsa isa :
       {MinPlusIsa::kDefault, MinPlusIsa::kAvx2, MinPlusIsa::kAvx512f}) {
    if (MinPlusIsaSupported(isa)) isas.push_back(isa);
  }
  return isas;
}

// ComputeDpMatrix's bottom-up loop with the convolution pinned to `isa`.
DpMatrix FillAt(const BinaryTree& tree, int k, const DpOptions& options,
                MinPlusIsa isa) {
  DpScratch scratch(isa);
  DpMatrix matrix;
  matrix.rows.resize(tree.num_nodes());
  for (size_t i = tree.num_nodes(); i-- > 0;) {
    const int32_t id = static_cast<int32_t>(i);
    if (!tree.node(id).live) continue;
    matrix.rows[id] = ComputeNodeRow(tree, id, matrix, k, options, &scratch);
  }
  return matrix;
}

// Every live node's row of `got` equals the row of `want`, and carries one
// children_pass per cost when internal and none when a leaf.
void ExpectSameRows(const BinaryTree& tree, const DpMatrix& got,
                    const DpMatrix& want, const std::string& label) {
  ASSERT_GE(got.rows.size(), tree.num_nodes()) << label;
  ASSERT_GE(want.rows.size(), tree.num_nodes()) << label;
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    const BinaryTree::Node& n = tree.node(static_cast<int32_t>(i));
    if (!n.live) continue;
    const DpRow& g = got.rows[i];
    const DpRow& w = want.rows[i];
    ASSERT_EQ(g.dense, w.dense) << label << " node " << i;
    ASSERT_EQ(g.children_pass, w.children_pass) << label << " node " << i;
    ASSERT_EQ(g.children_pass.size(), n.IsLeaf() ? 0 : g.dense.size())
        << label << " node " << i;
  }
}

// Every supported variant, and the dispatched ComputeDpMatrix, against the
// default variant on one tree.
void ExpectEveryIsaMatchesDefault(const BinaryTree& tree, int k,
                                  const DpOptions& options,
                                  const std::string& label) {
  const DpMatrix reference = FillAt(tree, k, options, MinPlusIsa::kDefault);
  for (const MinPlusIsa isa : SupportedIsas()) {
    ExpectSameRows(tree, FillAt(tree, k, options, isa), reference,
                   label + " isa=" + MinPlusIsaName(isa));
  }
  Result<DpMatrix> dispatched = ComputeDpMatrix(tree, k, options);
  ASSERT_TRUE(dispatched.ok()) << dispatched.status().ToString();
  ExpectSameRows(tree, *dispatched, reference, label + " dispatched");
}

TEST(DpKernel, DispatchedIsaIsTheWidestSupported) {
  const MinPlusIsa dispatched = DispatchedMinPlusIsa();
  EXPECT_TRUE(MinPlusIsaSupported(dispatched));
  EXPECT_EQ(dispatched, SupportedIsas().back());
  EXPECT_TRUE(MinPlusIsaSupported(MinPlusIsa::kDefault));
  EXPECT_STREQ(MinPlusIsaName(MinPlusIsa::kDefault), "default");
  EXPECT_STREQ(MinPlusIsaName(MinPlusIsa::kAvx2), "avx2");
  EXPECT_STREQ(MinPlusIsaName(MinPlusIsa::kAvx512f), "avx512f");
}

TEST(DpKernel, ConvolutionMatchesNaiveLoopAtEveryIsa) {
  // Odd lengths exercise every vector tail; kInfiniteCost entries are the
  // unreachable cells real rows carry.
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t na = 1 + rng.NextBounded(70);
    const size_t nb = 1 + rng.NextBounded(70);
    std::vector<Cost> a(na), b(nb);
    for (Cost& c : a) {
      c = rng.NextBounded(8) == 0 ? kInfiniteCost
                                  : static_cast<Cost>(rng.NextBounded(1 << 30));
    }
    for (Cost& c : b) {
      c = rng.NextBounded(8) == 0 ? kInfiniteCost
                                  : static_cast<Cost>(rng.NextBounded(1 << 30));
    }
    std::vector<Cost> want(na + nb - 1, kInfiniteCost);
    for (size_t i = 0; i < na; ++i) {
      for (size_t j = 0; j < nb; ++j) {
        want[i + j] = std::min(want[i + j], a[i] + b[j]);
      }
    }
    for (const MinPlusIsa isa : SupportedIsas()) {
      std::vector<Cost> got(na + nb - 1, kInfiniteCost);
      MinPlusConvolve(isa, a.data(), na, b.data(), nb, got.data());
      ASSERT_EQ(got, want) << "isa=" << MinPlusIsaName(isa) << " na=" << na
                           << " nb=" << nb;
    }
  }
}

TEST(DpKernel, EveryIsaMatchesDefaultOnRandomSnapshots) {
  uint64_t seed = 300;
  for (const int k : {1, 2, 3, 5, 8, 13, 21}) {
    for (const int n : {40, 400, 3000}) {
      for (const bool pruning : {true, false}) {
        Rng rng(seed++);
        const MapExtent extent{0, 0, 10};
        const LocationDatabase db = RandomDb(&rng, n, extent);
        Result<BinaryTree> tree =
            BinaryTree::Build(db, extent, TreeOptions{.split_threshold = k});
        ASSERT_TRUE(tree.ok());
        if (static_cast<int>(db.size()) < k) continue;
        ExpectEveryIsaMatchesDefault(
            *tree, k, DpOptions{.lemma5_pruning = pruning},
            "k=" + std::to_string(k) + " n=" + std::to_string(n) +
                " pruning=" + std::to_string(pruning));
      }
    }
  }
}

TEST(DpKernel, EveryIsaMatchesDefaultOnBayArea100k) {
  BayAreaOptions options;
  options.seed = 1;
  const LocationDatabase db = BayAreaGenerator(options).Generate(100'000);
  Result<MapExtent> extent = MapExtent::Covering(db.BoundingBox());
  ASSERT_TRUE(extent.ok());
  Result<BinaryTree> tree =
      BinaryTree::Build(db, *extent, TreeOptions{.split_threshold = 50});
  ASSERT_TRUE(tree.ok());
  ExpectEveryIsaMatchesDefault(*tree, 50, DpOptions{}, "bay_area_100k");
}

TEST(DpKernel, RepairedMatrixMatchesDefaultRebuildAtEveryIsa) {
  BayAreaOptions options;
  options.seed = 2;
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
    movement.seed = 40 + round;
    const std::vector<UserMove> moves = DrawMoves(db, *extent, movement);
    ASSERT_TRUE(inc->ApplyMoves(moves).ok());
    ASSERT_TRUE(ApplyMovesToDatabase(moves, &db).ok());
    // The repaired rows (dispatched kernel, dirty rows only) equal a full
    // refill of the same tree at every variant.
    for (const MinPlusIsa isa : SupportedIsas()) {
      ExpectSameRows(inc->tree(), inc->matrix(),
                     FillAt(inc->tree(), k, DpOptions{}, isa),
                     "round " + std::to_string(round) +
                         " isa=" + MinPlusIsaName(isa));
    }
  }
}

}  // namespace
}  // namespace pasa
