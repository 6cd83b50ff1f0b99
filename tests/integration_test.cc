// End-to-end integration tests: the full CSP pipeline on realistic synthetic
// workloads — build the optimal policy-aware policy, serve request streams,
// advance snapshots incrementally, and audit everything.

#include <gtest/gtest.h>

#include <set>

#include "attack/auditor.h"
#include "pasa/anonymizer.h"
#include "pasa/incremental.h"
#include "policies/casper.h"
#include "policies/k_inside_binary.h"
#include "policies/k_inside_quad.h"
#include "workload/bay_area.h"
#include "workload/movement.h"
#include "workload/requests.h"

namespace pasa {
namespace {

BayAreaOptions MediumOptions() {
  BayAreaOptions options;
  options.log2_map_side = 14;
  options.num_intersections = 800;
  options.users_per_intersection = 5;
  options.user_sigma = 60.0;
  options.num_clusters = 12;
  options.seed = 99;
  return options;
}

TEST(Integration, EndToEndPipelineOnSyntheticBayArea) {
  const BayAreaGenerator gen(MediumOptions());
  const LocationDatabase db = gen.Generate(4000);
  const int k = 25;

  AnonymizerOptions options;
  options.k = k;
  Result<Anonymizer> anonymizer =
      Anonymizer::Build(db, gen.extent(), options);
  ASSERT_TRUE(anonymizer.ok()) << anonymizer.status().ToString();

  // Privacy: both attacker classes defeated.
  EXPECT_TRUE(AuditPolicyAware(anonymizer->policy()).Anonymous(k));
  EXPECT_TRUE(AuditPolicyUnaware(anonymizer->policy(), db).Anonymous(k));
  EXPECT_TRUE(anonymizer->policy().IsMasking(db));

  // Serve a request stream; every anonymized request masks its service
  // request and rids are unique.
  RequestGenerator requests(17);
  std::set<RequestId> rids;
  for (const ServiceRequest& sr : requests.Draw(db, 500)) {
    Result<AnonymizedRequest> ar = anonymizer->Anonymize(sr);
    ASSERT_TRUE(ar.ok());
    EXPECT_TRUE(Masks(*ar, sr));
    EXPECT_TRUE(rids.insert(ar->rid).second);
  }

  // Lookups agree with the bulk policy.
  for (size_t row = 0; row < db.size(); row += 97) {
    Result<Rect> cloak = anonymizer->CloakForUser(db.row(row).user);
    ASSERT_TRUE(cloak.ok());
    EXPECT_EQ(*cloak, anonymizer->policy().cloak(row));
  }
  EXPECT_FALSE(anonymizer->CloakForUser(987654321).ok());

  // Stale request (user moved since the snapshot) is rejected.
  ServiceRequest stale{db.row(0).user,
                       {db.row(0).location.x + 1, db.row(0).location.y},
                       {}};
  EXPECT_FALSE(anonymizer->Anonymize(stale).ok());
}

TEST(Integration, StrongerGuaranteeCostsBoundedExtraUtility) {
  // The Figure 5(a) shape on a medium instance: the policy-aware optimum
  // pays more than Casper but by a modest factor, and no more than
  // (approximately) the policy-unaware quad baseline.
  const BayAreaGenerator gen(MediumOptions());
  const LocationDatabase db = gen.Generate(5000);
  const int k = 25;

  AnonymizerOptions options;
  options.k = k;
  Result<Anonymizer> aware = Anonymizer::Build(db, gen.extent(), options);
  Result<CloakingTable> casper = CasperPolicy(gen.extent()).Cloak(db, k);
  Result<CloakingTable> pub = PolicyUnawareBinary(gen.extent()).Cloak(db, k);
  Result<CloakingTable> puq = PolicyUnawareQuad(gen.extent()).Cloak(db, k);
  ASSERT_TRUE(aware.ok() && casper.ok() && pub.ok() && puq.ok());

  const double aware_area = aware->policy().AverageArea();
  const double casper_area = casper->AverageArea();
  const double pub_area = pub->AverageArea();
  const double puq_area = puq->AverageArea();

  // k-inside baselines are cheaper than the policy-aware optimum (they give
  // a weaker guarantee); Casper is the cheapest of them.
  EXPECT_LE(casper_area, pub_area);
  EXPECT_LE(pub_area, puq_area);
  EXPECT_GE(aware_area, pub_area);
  // The paper's headline: the stronger guarantee costs at most ~1.7x the
  // tightest policy-unaware cloaks. Allow generous slack for the synthetic
  // map; the benchmark reports the actual ratio.
  EXPECT_LE(aware_area, 3.0 * casper_area);
}

TEST(Integration, SnapshotAdvanceKeepsPrivacyAndOptimality) {
  const BayAreaGenerator gen(MediumOptions());
  LocationDatabase db = gen.Generate(3000);
  const int k = 20;

  Result<IncrementalAnonymizer> inc =
      IncrementalAnonymizer::Build(db, gen.extent(), k, DpOptions{});
  ASSERT_TRUE(inc.ok());

  for (int snapshot = 0; snapshot < 3; ++snapshot) {
    MovementOptions movement;
    movement.moving_fraction = 0.02;
    movement.max_distance = 200.0;
    movement.seed = 1000 + static_cast<uint64_t>(snapshot);
    const std::vector<UserMove> moves = DrawMoves(db, gen.extent(), movement);
    ASSERT_TRUE(inc->ApplyMoves(moves).ok());
    ASSERT_TRUE(ApplyMovesToDatabase(moves, &db).ok());

    Result<ExtractedPolicy> policy = inc->ExtractPolicy();
    ASSERT_TRUE(policy.ok());
    const CloakingTable table = policy->Table(inc->tree());
    EXPECT_TRUE(table.IsMasking(db));
    EXPECT_TRUE(AuditPolicyAware(table).Anonymous(k));

    // Matches a from-scratch rebuild on the advanced snapshot.
    AnonymizerOptions options;
    options.k = k;
    Result<Anonymizer> fresh = Anonymizer::Build(db, gen.extent(), options);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(table.TotalCost(), fresh->cost());
  }
}

}  // namespace
}  // namespace pasa
