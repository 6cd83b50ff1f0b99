// Tests for the policy-unaware k-inside baselines (PUQ, PUB, Casper,
// FindMBC): masking, the k-inside property, relative utility ordering, and
// the Example-1 policy-aware breach.

#include <gtest/gtest.h>

#include "attack/auditor.h"
#include "policies/casper.h"
#include "policies/find_mbc.h"
#include "policies/k_inside_binary.h"
#include "policies/k_inside_quad.h"
#include "tests/test_util.h"

namespace pasa {
namespace {

using testing_util::MakeDb;
using testing_util::RandomDb;

// Paper running example (Table I shifted): A(0,0) B(0,1) C(0,3) S(2,0)
// T(3,3) on the 4x4 map.
LocationDatabase PaperExampleDb() {
  return MakeDb({{0, 0}, {0, 1}, {0, 3}, {2, 0}, {3, 3}});
}

// Holds no pointers, so the parameter gtest prints into each test name
// is the same bytes in every process rather than an ASLR'd address.
enum class Baseline : int32_t { kPuq, kPub, kCasper };

struct BaselineCase {
  char name[12];
  Baseline baseline;
};

// Factory so each test owns its algorithm instance.
std::unique_ptr<BulkPolicyAlgorithm> MakeBaseline(Baseline baseline,
                                                  MapExtent e) {
  switch (baseline) {
    case Baseline::kPuq:
      return std::make_unique<PolicyUnawareQuad>(e);
    case Baseline::kPub:
      return std::make_unique<PolicyUnawareBinary>(e);
    case Baseline::kCasper:
      return std::make_unique<CasperPolicy>(e);
  }
  return nullptr;
}

class KInsideBaselineTest
    : public ::testing::TestWithParam<BaselineCase> {};

TEST_P(KInsideBaselineTest, MaskingAndKInsideOnRandomSnapshots) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    const MapExtent extent{0, 0, 6};
    const LocationDatabase db = RandomDb(&rng, 400, extent);
    const auto algorithm = MakeBaseline(GetParam().baseline, extent);
    for (const int k : {2, 5, 17}) {
      Result<CloakingTable> table = algorithm->Cloak(db, k);
      ASSERT_TRUE(table.ok()) << algorithm->name() << " k=" << k;
      EXPECT_TRUE(table->IsMasking(db));
      // k-inside == sender k-anonymous against policy-unaware attackers
      // (Proposition 2): every used cloak contains >= k locations.
      const AuditReport unaware = AuditPolicyUnaware(*table, db);
      EXPECT_TRUE(unaware.Anonymous(k))
          << algorithm->name() << " k=" << k << " min="
          << unaware.min_possible_senders;
    }
  }
}

TEST_P(KInsideBaselineTest, InfeasibleBelowK) {
  const MapExtent extent{0, 0, 3};
  const LocationDatabase db = MakeDb({{0, 0}, {1, 1}});
  const auto algorithm = MakeBaseline(GetParam().baseline, extent);
  EXPECT_EQ(algorithm->Cloak(db, 3).status().code(), StatusCode::kInfeasible);
}

INSTANTIATE_TEST_SUITE_P(
    Baselines, KInsideBaselineTest,
    ::testing::Values(BaselineCase{"PUQ", Baseline::kPuq},
                      BaselineCase{"PUB", Baseline::kPub},
                      BaselineCase{"Casper", Baseline::kCasper}),
    [](const ::testing::TestParamInfo<BaselineCase>& info) {
      return info.param.name;
    });

TEST(KInsideOrdering, CasperAndPubNeverWorseThanPuqPerUser) {
  for (const uint64_t seed : {10u, 11u, 12u, 13u}) {
    Rng rng(seed);
    const MapExtent extent{0, 0, 6};
    const LocationDatabase db = RandomDb(&rng, 300, extent);
    const int k = 5;
    Result<CloakingTable> puq = PolicyUnawareQuad(extent).Cloak(db, k);
    Result<CloakingTable> pub = PolicyUnawareBinary(extent).Cloak(db, k);
    Result<CloakingTable> casper = CasperPolicy(extent).Cloak(db, k);
    ASSERT_TRUE(puq.ok() && pub.ok() && casper.ok());
    for (size_t row = 0; row < db.size(); ++row) {
      // Casper shrinks PUQ's quadrant to a semi-quadrant when possible; PUB
      // extends the chain below every quadrant by a vertical semi.
      EXPECT_LE(casper->cloak(row).Area(), puq->cloak(row).Area());
      EXPECT_LE(pub->cloak(row).Area(), puq->cloak(row).Area());
    }
    // Aggregate ordering of Figure 5(a): Casper is the cheapest k-inside.
    EXPECT_LE(casper->TotalCost(), pub->TotalCost());
  }
}

TEST(Example1Breach, SemiQuadrantKInsidePoliciesExposeCarol) {
  // Example 1/6 uses semi-quadrant cloaks (the [23]-style algorithm): under
  // PUB and Casper, Carol's cloak group is a singleton, so a policy-aware
  // attacker identifies her — while policy-unaware 2-anonymity still holds
  // (Propositions 2 and 3).
  const LocationDatabase db = PaperExampleDb();
  const MapExtent extent{0, 0, 2};
  const size_t carol = 2;
  for (const Baseline baseline : {Baseline::kPub, Baseline::kCasper}) {
    const auto algorithm = MakeBaseline(baseline, extent);
    Result<CloakingTable> table = algorithm->Cloak(db, 2);
    ASSERT_TRUE(table.ok()) << algorithm->name();
    EXPECT_TRUE(AuditPolicyUnaware(*table, db).Anonymous(2))
        << algorithm->name();
    const AuditReport aware = AuditPolicyAware(*table);
    EXPECT_FALSE(aware.Anonymous(2)) << algorithm->name();
    const std::vector<size_t> breached = aware.Breaches(2);
    ASSERT_FALSE(breached.empty());
    EXPECT_NE(std::find(breached.begin(), breached.end(), carol),
              breached.end())
        << algorithm->name() << ": Carol should be identifiable";
  }
}

TEST(Example1Breach, QuadrantKInsidePolicyBreachesOnOutlierInstance) {
  // PUQ happens to be safe on the Table I instance (all root-cloaked users
  // share the root group), but an outlier alone in her quadrant while the
  // rest pair up deeper exposes her.
  const LocationDatabase db = MakeDb({{0, 0}, {1, 1}, {0, 3}});
  const MapExtent extent{0, 0, 2};
  const size_t outlier = 2;
  Result<CloakingTable> table = PolicyUnawareQuad(extent).Cloak(db, 2);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(AuditPolicyUnaware(*table, db).Anonymous(2));
  const AuditReport aware = AuditPolicyAware(*table);
  EXPECT_FALSE(aware.Anonymous(2));
  EXPECT_EQ(aware.possible_senders_per_row[outlier], 1u);
}

TEST(FindMbcTest, CirclesAreKInsideButPolicyAwareBreachable) {
  Rng rng(31);
  const MapExtent extent{0, 0, 6};
  const LocationDatabase db = RandomDb(&rng, 120, extent);
  const int k = 6;
  Result<CircularCloaking> cloaking = FindMbcCloaking(db, k);
  ASSERT_TRUE(cloaking.ok());
  EXPECT_TRUE(cloaking->IsMasking(db));
  // k-inside: at least k users inside every circle.
  EXPECT_TRUE(AuditPolicyUnaware(cloaking->cloaks, db).Anonymous(k));
  // Policy-aware: MBCs are essentially unique per user; expect a breach.
  EXPECT_FALSE(AuditPolicyAware(cloaking->cloaks).Anonymous(k));
}

TEST(FindMbcTest, KNearestRowsMatchesBruteForce) {
  Rng rng(32);
  const MapExtent extent{0, 0, 7};
  const LocationDatabase db = RandomDb(&rng, 200, extent);
  for (int trial = 0; trial < 20; ++trial) {
    const Point query{static_cast<Coord>(rng.NextBounded(extent.side())),
                      static_cast<Coord>(rng.NextBounded(extent.side()))};
    const size_t k = 1 + rng.NextBounded(10);
    const std::vector<size_t> got = KNearestRows(db, query, k);
    ASSERT_EQ(got.size(), k);
    // Brute-force reference.
    std::vector<std::pair<int64_t, size_t>> all;
    for (size_t r = 0; r < db.size(); ++r) {
      all.emplace_back(SquaredDistance(db.row(r).location, query), r);
    }
    std::sort(all.begin(), all.end());
    for (size_t i = 0; i < k; ++i) {
      EXPECT_EQ(SquaredDistance(db.row(got[i]).location, query), all[i].first)
          << "neighbour " << i;
    }
  }
}

TEST(FindMbcTest, InfeasibleBelowK) {
  const LocationDatabase db = MakeDb({{0, 0}});
  EXPECT_EQ(FindMbcCloaking(db, 2).status().code(), StatusCode::kInfeasible);
}

}  // namespace
}  // namespace pasa
