// Tests for pasa::fault: plan parsing/validation and the deterministic
// seeded injector (schedules, probability streams, kill-switch behavior).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/injector.h"
#include "fault/plan.h"

namespace pasa {
namespace fault {
namespace {

// The global injector is process-wide state: every test leaves it disarmed.
class FaultInjectorTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Disarm(); }
};

TEST(FaultPlanTest, ParsesFullPlan) {
  const Result<FaultPlan> plan = FaultPlan::FromJson(R"({
    "seed": 42,
    "points": [
      {"point": "lbs/error", "probability": 0.25},
      {"point": "lbs/latency", "probability": 0.5, "latency_micros": 20000,
       "after": 10, "every": 2, "max_fires": 100}
    ]
  })");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->default_seed, 42u);
  ASSERT_EQ(plan->points.size(), 2u);
  EXPECT_EQ(plan->points[0].point, kLbsError);
  EXPECT_DOUBLE_EQ(plan->points[0].probability, 0.25);
  EXPECT_EQ(plan->points[1].point, kLbsLatency);
  EXPECT_DOUBLE_EQ(plan->points[1].latency_micros, 20000.0);
  EXPECT_EQ(plan->points[1].after, 10u);
  EXPECT_EQ(plan->points[1].every, 2u);
  EXPECT_EQ(plan->points[1].max_fires, 100u);
}

TEST(FaultPlanTest, RejectsMalformedPlans) {
  // Malformed JSON.
  EXPECT_EQ(FaultPlan::FromJson("{not json").status().code(),
            StatusCode::kInvalidArgument);
  // Wrong top-level shape.
  EXPECT_EQ(FaultPlan::FromJson("[1, 2]").status().code(),
            StatusCode::kInvalidArgument);
  // Missing points array.
  EXPECT_EQ(FaultPlan::FromJson(R"({"seed": 1})").status().code(),
            StatusCode::kInvalidArgument);
  // Unknown point name; the error should teach the catalog.
  const Status unknown =
      FaultPlan::FromJson(R"({"points": [{"point": "lbs/typo"}]})").status();
  EXPECT_EQ(unknown.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.message().find("lbs/latency"), std::string::npos);
  // Probability out of range.
  EXPECT_FALSE(FaultPlan::FromJson(
                   R"({"points": [{"point": "lbs/error", "probability": 1.5}]})")
                   .ok());
  // Duplicate point.
  EXPECT_FALSE(FaultPlan::FromJson(R"({"points": [
        {"point": "lbs/error"}, {"point": "lbs/error"}]})")
                   .ok());
  // Negative schedule field.
  EXPECT_FALSE(FaultPlan::FromJson(
                   R"({"points": [{"point": "lbs/error", "after": -1}]})")
                   .ok());
  // Fractional schedule fields would silently truncate; reject them typed.
  const Status fractional =
      FaultPlan::FromJson(
          R"({"points": [{"point": "lbs/error", "max_fires": 1.5}]})")
          .status();
  EXPECT_EQ(fractional.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(fractional.message().find("integer"), std::string::npos);
  // Counts beyond 2^53 are not exactly representable in JSON doubles and
  // the cast to uint64_t would be UB; reject them typed instead.
  const Status overflow =
      FaultPlan::FromJson(
          R"({"points": [{"point": "lbs/error", "after": 1e30}]})")
          .status();
  EXPECT_EQ(overflow.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(overflow.message().find("overflows"), std::string::npos);
  EXPECT_FALSE(FaultPlan::FromJson(
                   R"({"points": [{"point": "lbs/error", "every": 0.25}]})")
                   .ok());
  // The plan seed gets the same treatment.
  EXPECT_FALSE(FaultPlan::FromJson(
                   R"({"seed": 1.5, "points": [{"point": "lbs/error"}]})")
                   .ok());
  EXPECT_FALSE(FaultPlan::FromJson(
                   R"({"seed": 1e30, "points": [{"point": "lbs/error"}]})")
                   .ok());
}

TEST(FaultPlanTest, MissingFileIsNotFound) {
  EXPECT_EQ(FaultPlan::FromJsonFile("/nonexistent/plan.json").status().code(),
            StatusCode::kNotFound);
}

TEST(FaultPlanTest, DirectoryIsUnreadableNotEmpty) {
  EXPECT_EQ(FaultPlan::FromJsonFile(::testing::TempDir()).status().code(),
            StatusCode::kInternal);
}

TEST_F(FaultInjectorTest, DisarmedInjectorNeverFires) {
  FaultInjector& injector = FaultInjector::Global();
  EXPECT_FALSE(injector.armed());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(injector.ShouldInject(kLbsError));
  }
  EXPECT_EQ(injector.evaluations(kLbsError), 0u);  // fast path short-circuits
}

TEST_F(FaultInjectorTest, UnconfiguredPointStaysQuietWhileArmed) {
  FaultPlan plan;
  plan.points.push_back({std::string(kLbsError)});
  FaultInjector::Global().Arm(plan, 1);
  EXPECT_TRUE(FaultInjector::Global().armed());
  EXPECT_FALSE(FaultInjector::Global().ShouldInject(kLbsTimeout));
  EXPECT_TRUE(FaultInjector::Global().ShouldInject(kLbsError));
}

TEST_F(FaultInjectorTest, SameSeedReplaysTheSameFireSequence) {
  FaultPlan plan;
  FaultPointConfig flaky{std::string(kLbsError)};
  flaky.probability = 0.3;
  plan.points.push_back(flaky);

  const auto draw_sequence = [&](uint64_t seed) {
    FaultInjector::Global().Arm(plan, seed);
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) {
      fired.push_back(FaultInjector::Global().ShouldInject(kLbsError));
    }
    return fired;
  };
  const std::vector<bool> run1 = draw_sequence(7);
  const std::vector<bool> run2 = draw_sequence(7);
  const std::vector<bool> other_seed = draw_sequence(8);
  EXPECT_EQ(run1, run2);
  EXPECT_NE(run1, other_seed);
  // ~30% of 200 evaluations: sanity-check the stream is neither empty nor
  // saturated.
  const size_t fires = FaultInjector::Global().fires(kLbsError);
  EXPECT_GT(fires, 20u);
  EXPECT_LT(fires, 120u);
}

TEST_F(FaultInjectorTest, PointStreamsAreIndependentOfEachOther) {
  // The lbs/error stream must not depend on whether lbs/timeout is being
  // evaluated in between: each point hashes its own stream off the seed.
  FaultPlan plan;
  FaultPointConfig flaky{std::string(kLbsError)};
  flaky.probability = 0.5;
  plan.points.push_back(flaky);

  FaultInjector::Global().Arm(plan, 99);
  std::vector<bool> alone;
  for (int i = 0; i < 50; ++i) {
    alone.push_back(FaultInjector::Global().ShouldInject(kLbsError));
  }

  FaultPlan with_other = plan;
  FaultPointConfig other{std::string(kLbsTimeout)};
  other.probability = 0.5;
  with_other.points.push_back(other);
  FaultInjector::Global().Arm(with_other, 99);
  std::vector<bool> interleaved;
  for (int i = 0; i < 50; ++i) {
    FaultInjector::Global().ShouldInject(kLbsTimeout);
    interleaved.push_back(FaultInjector::Global().ShouldInject(kLbsError));
  }
  EXPECT_EQ(alone, interleaved);
}

TEST_F(FaultInjectorTest, ScheduleFieldsGateEligibility) {
  FaultPlan plan;
  FaultPointConfig config{std::string(kLbsError)};
  config.after = 3;
  config.every = 2;
  config.max_fires = 2;
  plan.points.push_back(config);
  FaultInjector::Global().Arm(plan, 1);

  std::vector<int> fired_at;
  for (int i = 1; i <= 12; ++i) {
    if (FaultInjector::Global().ShouldInject(kLbsError)) fired_at.push_back(i);
  }
  // Evaluations 1-3 are skipped (after), then every 2nd eligible evaluation
  // fires (5, 7, ...) until max_fires caps it at two.
  EXPECT_EQ(fired_at, (std::vector<int>{5, 7}));
  EXPECT_EQ(FaultInjector::Global().evaluations(kLbsError), 12u);
  EXPECT_EQ(FaultInjector::Global().fires(kLbsError), 2u);
}

TEST_F(FaultInjectorTest, LatencyPayloadRidesTheDecision) {
  FaultPlan plan;
  FaultPointConfig config{std::string(kLbsLatency)};
  config.latency_micros = 1234.0;
  plan.points.push_back(config);
  FaultInjector::Global().Arm(plan, 1);
  const FaultDecision decision =
      FaultInjector::Global().Decide(kLbsLatency);
  EXPECT_TRUE(decision.fire);
  EXPECT_DOUBLE_EQ(decision.latency_micros, 1234.0);
}

TEST_F(FaultInjectorTest, RearmingResetsCounters) {
  FaultPlan plan;
  plan.points.push_back({std::string(kLbsError)});
  FaultInjector::Global().Arm(plan, 1);
  FaultInjector::Global().ShouldInject(kLbsError);
  EXPECT_EQ(FaultInjector::Global().fires(kLbsError), 1u);
  FaultInjector::Global().Arm(plan, 1);
  EXPECT_EQ(FaultInjector::Global().fires(kLbsError), 0u);
  FaultInjector::Global().Disarm();
  EXPECT_FALSE(FaultInjector::Global().armed());
}

}  // namespace
}  // namespace fault
}  // namespace pasa
