// Unit tests for the SLO tracker: burn-rate math, the zero-tolerance
// sentinel, multi-window fire/resolve transitions and their side channels
// (log counters), and the arming semantics.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/window.h"

namespace pasa {
namespace obs {
namespace {

// Small windows keep the sliding arithmetic exact: with explicit event
// times, fast covers the last 16 ms, slow the last 160 ms.
SloObjective TestObjective(const std::string& name, double target,
                           double burn_threshold) {
  SloObjective o;
  o.name = name;
  o.kind = SloObjective::Kind::kAvailability;
  o.target = target;
  o.fast_window_micros = 16'000;
  o.slow_window_micros = 160'000;
  o.burn_alert_threshold = burn_threshold;
  return o;
}

const SloState& StateOf(const std::vector<SloState>& states,
                        const std::string& name) {
  for (const SloState& state : states) {
    if (state.name == name) return state;
  }
  ADD_FAILURE() << "objective " << name << " not evaluated";
  static SloState missing;
  return missing;
}

class SloTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Configure(ObsOptions{.enabled = true});
    MetricsRegistry::Global().Reset();
    SloTracker::Global().Configure({});  // drop objectives from other tests
    SloTracker::Global().Enable();
  }
  void TearDown() override {
    SloTracker::Global().Disable();
    SloTracker::Global().Configure({});
  }
};

TEST_F(SloTest, BurnRateIsBadFractionOverBudget) {
  SloTracker& tracker = SloTracker::Global();
  // target 0.9: a 20% bad fraction burns the 10% budget at 2x.
  tracker.Configure({TestObjective("slo_test/avail", 0.9, 1e12)});
  for (int i = 0; i < 80; ++i) tracker.Record("slo_test/avail", true, 0);
  for (int i = 0; i < 20; ++i) tracker.Record("slo_test/avail", false, 0);
  const SloState state =
      StateOf(tracker.Evaluate(0), "slo_test/avail");
  EXPECT_DOUBLE_EQ(state.fast_burn, 2.0);
  EXPECT_DOUBLE_EQ(state.slow_burn, 2.0);
  EXPECT_EQ(state.fast_good, 80u);
  EXPECT_EQ(state.fast_total, 100u);
  EXPECT_FALSE(state.alerting);  // threshold is astronomically high
}

TEST_F(SloTest, EmptyWindowBurnsNothing) {
  SloTracker& tracker = SloTracker::Global();
  tracker.Configure({TestObjective("slo_test/idle", 0.999, 14.0)});
  const SloState state = StateOf(tracker.Evaluate(0), "slo_test/idle");
  EXPECT_DOUBLE_EQ(state.fast_burn, 0.0);
  EXPECT_DOUBLE_EQ(state.slow_burn, 0.0);
  EXPECT_FALSE(state.alerting);
}

TEST_F(SloTest, ZeroViolationsObjectiveUsesTheInfiniteSentinel) {
  SloTracker& tracker = SloTracker::Global();
  SloObjective o = TestObjective("slo_test/anon", 0.5, 14.0);
  o.kind = SloObjective::Kind::kZeroViolations;
  tracker.Configure({o});
  for (int i = 0; i < 100; ++i) tracker.Record("slo_test/anon", true, 0);
  SloState state = StateOf(tracker.Evaluate(0), "slo_test/anon");
  // The lenient target was forced to 1.0, and all-good burns nothing.
  EXPECT_DOUBLE_EQ(state.target, 1.0);
  EXPECT_DOUBLE_EQ(state.fast_burn, 0.0);
  EXPECT_FALSE(state.alerting);
  // One violation is immediately an "infinite" burn and an alert.
  tracker.Record("slo_test/anon", false, 0);
  state = StateOf(tracker.Evaluate(0), "slo_test/anon");
  EXPECT_DOUBLE_EQ(state.fast_burn, kInfiniteBurn);
  EXPECT_TRUE(state.alerting);
  EXPECT_EQ(state.alerts_fired, 1u);
}

TEST_F(SloTest, AlertNeedsBothWindowsBurning) {
  SloTracker& tracker = SloTracker::Global();
  // budget 0.1, threshold 5: needs a bad fraction >= 0.5 in BOTH windows.
  tracker.Configure({TestObjective("slo_test/both", 0.9, 5.0)});
  // Old traffic, all good: lands in the slow window only.
  for (int i = 0; i < 100; ++i) tracker.Record("slo_test/both", true, 20'000);
  // Fresh outage inside the fast window (t in the last 16 ms before now).
  for (int i = 0; i < 20; ++i) tracker.Record("slo_test/both", false, 150'000);
  SloState state = StateOf(tracker.Evaluate(150'000), "slo_test/both");
  EXPECT_GE(state.fast_burn, 5.0);           // fast window: 100% bad
  EXPECT_LT(state.slow_burn, 5.0);           // slow window: 20/120 bad
  EXPECT_FALSE(state.alerting) << "slow window must suppress the blip";

  // Once the failures dominate the slow window too, the alert fires...
  for (int i = 0; i < 100; ++i) tracker.Record("slo_test/both", false, 151'000);
  state = StateOf(tracker.Evaluate(151'000), "slo_test/both");
  EXPECT_TRUE(state.alerting);
  EXPECT_EQ(state.alerts_fired, 1u);
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("slo/alerts_fired").value(),
            1u);

  // ...and resolves purely by the windows sliding past the outage.
  state = StateOf(tracker.Evaluate(1'000'000), "slo_test/both");
  EXPECT_FALSE(state.alerting);
  EXPECT_EQ(state.alerts_resolved, 1u);
  EXPECT_EQ(
      MetricsRegistry::Global().GetCounter("slo/alerts_resolved").value(),
      1u);
}

TEST_F(SloTest, RecordLatencyAppliesTheThreshold) {
  SloTracker& tracker = SloTracker::Global();
  SloObjective o = TestObjective("slo_test/lat", 0.5, 1e12);
  o.kind = SloObjective::Kind::kLatency;
  o.latency_threshold_seconds = 0.005;
  tracker.Configure({o});
  tracker.RecordLatency("slo_test/lat", 0.001, 0);  // good
  tracker.RecordLatency("slo_test/lat", 0.005, 0);  // good (<=)
  tracker.RecordLatency("slo_test/lat", 0.050, 0);  // bad
  const SloState state = StateOf(tracker.Evaluate(0), "slo_test/lat");
  EXPECT_EQ(state.fast_good, 2u);
  EXPECT_EQ(state.fast_total, 3u);
}

TEST_F(SloTest, RecordLatencyOnAnUnknownObjectiveIsANoOp) {
  SloTracker& tracker = SloTracker::Global();
  SloObjective o = TestObjective("slo_test/known", 0.5, 1e12);
  o.kind = SloObjective::Kind::kLatency;
  o.latency_threshold_seconds = 0.005;
  tracker.Configure({o});
  tracker.RecordLatency("slo_test/never_configured", 0.050, 0);
  const std::vector<SloState> states = tracker.Evaluate(0);
  ASSERT_EQ(states.size(), 1u) << "an unknown name must not create an entry";
  EXPECT_EQ(StateOf(states, "slo_test/known").fast_total, 0u);
}

TEST_F(SloTest, DisabledTrackerIgnoresRecords) {
  SloTracker& tracker = SloTracker::Global();
  tracker.Configure({TestObjective("slo_test/off", 0.9, 14.0)});
  tracker.Disable();
  tracker.Record("slo_test/off", false, 0);
  tracker.Enable();
  const SloState state = StateOf(tracker.Evaluate(0), "slo_test/off");
  EXPECT_EQ(state.fast_total, 0u);
}

TEST_F(SloTest, UnknownObjectiveNamesAreIgnored) {
  SloTracker::Global().Record("slo_test/never_configured", false, 0);
  EXPECT_TRUE(SloTracker::Global().Evaluate(0).empty());
}

TEST_F(SloTest, EnsureObjectiveDoesNotClobberConfigure) {
  SloTracker& tracker = SloTracker::Global();
  tracker.Configure({TestObjective("slo_test/mine", 0.5, 14.0)});
  SloObjective imposter = TestObjective("slo_test/mine", 0.999, 14.0);
  tracker.EnsureObjective(imposter);  // already present: kept as configured
  tracker.EnsureObjective(TestObjective("slo_test/extra", 0.9, 14.0));
  const std::vector<SloState> states = tracker.Evaluate(0);
  ASSERT_EQ(states.size(), 2u);
  EXPECT_DOUBLE_EQ(StateOf(states, "slo_test/mine").target, 0.5);
  EXPECT_DOUBLE_EQ(StateOf(states, "slo_test/extra").target, 0.9);
}

TEST_F(SloTest, ResetClearsWindowsAndAlertsButKeepsObjectives) {
  SloTracker& tracker = SloTracker::Global();
  SloObjective o = TestObjective("slo_test/reset", 1.0, 14.0);
  o.kind = SloObjective::Kind::kZeroViolations;
  tracker.Configure({o});
  tracker.Record("slo_test/reset", false, 0);
  EXPECT_TRUE(StateOf(tracker.Evaluate(0), "slo_test/reset").alerting);
  tracker.Reset();
  const SloState state = StateOf(tracker.Evaluate(0), "slo_test/reset");
  EXPECT_FALSE(state.alerting);
  EXPECT_EQ(state.fast_total, 0u);
  EXPECT_EQ(state.alerts_fired, 0u);
}

TEST_F(SloTest, DefaultServingObjectivesCoverTheThreeSlos) {
  const std::vector<SloObjective> defaults = DefaultServingObjectives();
  ASSERT_EQ(defaults.size(), 3u);
  EXPECT_EQ(defaults[0].name, kSloAvailability);
  EXPECT_EQ(defaults[1].name, kSloServeLatency);
  EXPECT_EQ(defaults[2].name, kSloAnonymity);
  EXPECT_EQ(std::string(SloKindName(defaults[2].kind)), "zero_violations");
}

TEST(SloConfigTest, MissingFileIsNotFoundAndADirectoryIsUnreadable) {
  EXPECT_EQ(SloObjectivesFromJsonFile("/no/such/slo.json").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(SloObjectivesFromJsonFile(::testing::TempDir()).status().code(),
            StatusCode::kInternal);
}

}  // namespace
}  // namespace obs
}  // namespace pasa
