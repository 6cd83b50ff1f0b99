// The state-space explorer (src/sim): deterministic stepping, canonical
// digests, exhaustive bounded exploration with a clean verdict on the real
// stack, and — the part that keeps the tool honest — deliberately broken
// doubles whose planted bugs must be found, delta-debugged to a minimal
// trace, and replayed from the emitted counterexample script.
#include <gtest/gtest.h>

#include "fault/injector.h"
#include "obs/log.h"
#include "sim/broken.h"
#include "sim/explorer.h"
#include "sim/invariants.h"
#include "sim/model.h"
#include "sim/script.h"

namespace pasa {
namespace sim {
namespace {

class SimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_log_level_ = obs::Logger::Global().level();
    obs::Logger::Global().SetLevel(obs::LogLevel::kError);
  }
  void TearDown() override {
    fault::FaultInjector::Global().Disarm();
    obs::Logger::Global().SetLevel(previous_log_level_);
  }
  obs::LogLevel previous_log_level_ = obs::LogLevel::kInfo;

  static SimOptions SmallInstance() {
    SimOptions options;
    options.users = 8;
    options.k = 3;
    options.max_advances = 2;
    options.move_batches = 2;
    options.seed = 2010;
    return options;
  }
};

TEST_F(SimTest, ActionSpellingRoundTrips) {
  const std::vector<SimAction> actions = {
      {SimAction::Kind::kRequest, 3, ""},
      {SimAction::Kind::kServeStale, 1, ""},
      {SimAction::Kind::kAdvance, 0, ""},
      {SimAction::Kind::kFireFault, 0, "lbs/error"},
      {SimAction::Kind::kExpireCache, 0, ""},
  };
  for (const SimAction& action : actions) {
    Result<SimAction> parsed = SimAction::Parse(action.ToString());
    ASSERT_TRUE(parsed.ok()) << action.ToString();
    EXPECT_EQ(*parsed, action) << action.ToString();
  }
  EXPECT_FALSE(SimAction::Parse("bogus").ok());
  EXPECT_FALSE(SimAction::Parse("request:").ok());
  EXPECT_FALSE(SimAction::Parse("advance:x").ok());
}

TEST_F(SimTest, StepsAreDeterministic) {
  const std::vector<SimAction> script = {
      {SimAction::Kind::kRequest, 0, ""},
      {SimAction::Kind::kFireFault, 0, "lbs/error"},
      {SimAction::Kind::kRequest, 1, ""},
      {SimAction::Kind::kAdvance, 0, ""},
      {SimAction::Kind::kServeStale, 0, ""},
      {SimAction::Kind::kExpireCache, 0, ""},
  };
  Result<SimModel> a = SimModel::Create(SmallInstance());
  Result<SimModel> b = SimModel::Create(SmallInstance());
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->Digest(), b->Digest());
  for (const SimAction& action : script) {
    ASSERT_TRUE(a->Step(action).ok());
    ASSERT_TRUE(b->Step(action).ok());
    EXPECT_EQ(a->DigestText(), b->DigestText()) << action.ToString();
  }
}

TEST_F(SimTest, CloneBranchesIndependently) {
  Result<SimModel> model = SimModel::Create(SmallInstance());
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->Step({SimAction::Kind::kRequest, 0, ""}).ok());
  const uint64_t digest = model->Digest();
  SimModel branch = *model;
  EXPECT_EQ(branch.Digest(), digest);
  ASSERT_TRUE(branch.Step({SimAction::Kind::kAdvance, 1, ""}).ok());
  EXPECT_NE(branch.Digest(), digest);
  EXPECT_EQ(model->Digest(), digest) << "stepping a clone mutated the parent";
  EXPECT_EQ(model->advances_done(), 0);
  EXPECT_EQ(branch.advances_done(), 1);
}

TEST_F(SimTest, StaleServingDegradesButStaysAnonymous) {
  Result<SimModel> model = SimModel::Create(SmallInstance());
  ASSERT_TRUE(model.ok());
  // Prime the cache, move the world so cloaks change, then request with the
  // provider forced down: the answer must degrade (or fail typed), never
  // pass stale data off as fresh — and the cloak stays k-anonymous.
  ASSERT_TRUE(model->Step({SimAction::Kind::kRequest, 0, ""}).ok());
  ASSERT_TRUE(model->Step({SimAction::Kind::kAdvance, 1, ""}).ok());
  ASSERT_TRUE(model->Step({SimAction::Kind::kServeStale, 0, ""}).ok());
  const StepRecord& step = model->last_step();
  EXPECT_TRUE(step.served || step.serve_failed);
  if (step.served) {
    EXPECT_TRUE(step.answer_degraded ||
                step.receipt.cloak == model->csp().policy().cloak(0));
  }
  EXPECT_EQ(CheckInvariants(*model), std::nullopt);
}

TEST_F(SimTest, ExplorerCoversBoundedInstanceCleanly) {
  ExplorerOptions options;
  options.model = SmallInstance();
  options.max_depth = 3;
  options.max_states = 20'000;
  Result<ExploreResult> result = Explore(options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->violation, std::nullopt)
      << result->violation->invariant << ": " << result->violation->detail;
  EXPECT_TRUE(result->stats.exhausted);
  EXPECT_EQ(result->stats.depth_reached, 3);
  EXPECT_GT(result->stats.states_visited, 100u);
  EXPECT_GT(result->stats.states_pruned, 0u)
      << "canonical hashing should merge equivalent interleavings";
}

TEST_F(SimTest, BrokenRepairDoubleIsCaughtAndShrunk) {
  Result<SimSystem*> broken = SystemForName("repair");
  ASSERT_TRUE(broken.ok());
  ExplorerOptions options;
  options.model = SmallInstance();
  options.max_depth = 4;
  options.system = *broken;
  Result<ExploreResult> result = Explore(options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->violation.has_value())
      << "the planted repair bug was not found";
  EXPECT_EQ(result->violation->invariant, "kanon");
  ASSERT_FALSE(result->shrunk_trace.empty());
  EXPECT_LE(result->shrunk_trace.size(), 2u)
      << "ddmin should reduce to advance + request";
  // The shrunk trace must still reproduce the violation from scratch.
  Result<std::optional<Violation>> replay =
      ReplayTrace(options, result->shrunk_trace);
  ASSERT_TRUE(replay.ok());
  ASSERT_TRUE(replay->has_value());
  EXPECT_EQ((*replay)->invariant, "kanon");
}

TEST_F(SimTest, BrokenQuarantineDoubleIsCaughtAndShrunk) {
  Result<SimSystem*> broken = SystemForName("quarantine");
  ASSERT_TRUE(broken.ok());
  ExplorerOptions options;
  options.model = SmallInstance();
  options.max_depth = 4;
  options.system = *broken;
  Result<ExploreResult> result = Explore(options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->violation.has_value())
      << "the planted quarantine bug was not found";
  EXPECT_EQ(result->violation->invariant, "quarantine");
  EXPECT_LE(result->shrunk_trace.size(), 2u)
      << "ddmin should reduce to corrupt-move fault + advance";
  Result<std::optional<Violation>> replay =
      ReplayTrace(options, result->shrunk_trace);
  ASSERT_TRUE(replay.ok());
  ASSERT_TRUE(replay->has_value());
  EXPECT_EQ((*replay)->invariant, "quarantine");
}

TEST_F(SimTest, InvariantMaskParsing) {
  Result<uint32_t> all = ParseInvariantMask("all");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, kAllInvariants);
  Result<uint32_t> two = ParseInvariantMask("kanon,repair");
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(*two, kInvariantKAnonymity | kInvariantRepairEqualsRebuild);
  EXPECT_FALSE(ParseInvariantMask("kanon,bogus").ok());
}

TEST_F(SimTest, CounterexampleScriptRoundTrips) {
  CounterexampleScript script;
  script.model = SmallInstance();
  script.broken = "repair";
  script.expect_invariant = "kanon";
  script.actions = {
      {SimAction::Kind::kFireFault, 0, "snapshot/repair_fail"},
      {SimAction::Kind::kAdvance, 0, ""},
      {SimAction::Kind::kRequest, 2, ""},
  };
  Result<CounterexampleScript> parsed =
      CounterexampleScript::FromJson(script.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->model.users, script.model.users);
  EXPECT_EQ(parsed->model.k, script.model.k);
  EXPECT_EQ(parsed->model.seed, script.model.seed);
  EXPECT_EQ(parsed->broken, "repair");
  EXPECT_EQ(parsed->expect_invariant, "kanon");
  EXPECT_EQ(parsed->actions, script.actions);
  const fault::FaultPlan plan = parsed->DerivedFaultPlan();
  ASSERT_EQ(plan.points.size(), 1u);
  EXPECT_EQ(plan.points[0].point, "snapshot/repair_fail");
  EXPECT_EQ(plan.points[0].max_fires, 1u);
  EXPECT_FALSE(CounterexampleScript::FromJson("{\"actions\": 3}").ok());
  EXPECT_FALSE(CounterexampleScript::FromJson("{}").ok());
}

TEST_F(SimTest, NetFaultPointsAreRejected) {
  SimOptions options = SmallInstance();
  options.fault_points = {"net/conn_drop"};
  EXPECT_FALSE(SimModel::Create(options).ok());
  options.fault_points = {"no/such_point"};
  EXPECT_FALSE(SimModel::Create(options).ok());
}

TEST(CounterexampleScriptTest, MissingFileIsNotFoundAndADirectoryIsUnreadable) {
  EXPECT_EQ(CounterexampleScript::FromJsonFile("/no/such/script.json")
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(CounterexampleScript::FromJsonFile(::testing::TempDir())
                .status()
                .code(),
            StatusCode::kInternal);
}

}  // namespace
}  // namespace sim
}  // namespace pasa
