// Tests for the benchstat layer: aggregation statistics, snapshot JSON
// round trip, metrics-JSON extraction, and the compare verdicts that back
// the perf-regression gate (improvement, regression, within-noise).

#include "obs/benchstat.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pasa {
namespace obs {
namespace benchstat {
namespace {

Snapshot MakeSnapshot(const std::string& name,
                      const std::map<std::string, Measurement>& measurements) {
  Snapshot snapshot;
  snapshot.name = name;
  snapshot.iterations = 5;
  snapshot.measurements = measurements;
  return snapshot;
}

Measurement MakeMeasurement(double mean, double stddev) {
  Measurement m;
  m.mean = mean;
  m.stddev = stddev;
  m.min = mean - stddev;
  m.samples = 5;
  return m;
}

TEST(BenchstatTest, AggregateComputesMeanStddevMin) {
  const std::vector<std::map<std::string, double>> runs = {
      {{"wall_seconds", 1.0}, {"span/bulk_dp", 0.5}},
      {{"wall_seconds", 2.0}, {"span/bulk_dp", 0.7}},
      {{"wall_seconds", 3.0}},
  };
  const Snapshot snapshot = Aggregate("fig4a", runs);
  EXPECT_EQ(snapshot.name, "fig4a");
  EXPECT_EQ(snapshot.iterations, 3);
  ASSERT_EQ(snapshot.measurements.size(), 2u);

  const Measurement& wall = snapshot.measurements.at("wall_seconds");
  EXPECT_DOUBLE_EQ(wall.mean, 2.0);
  EXPECT_DOUBLE_EQ(wall.stddev, 1.0);  // sample stddev of {1,2,3}
  EXPECT_DOUBLE_EQ(wall.min, 1.0);
  EXPECT_EQ(wall.samples, 3u);

  // Keys missing from some runs aggregate over the runs that have them.
  const Measurement& span = snapshot.measurements.at("span/bulk_dp");
  EXPECT_DOUBLE_EQ(span.mean, 0.6);
  EXPECT_EQ(span.samples, 2u);
}

TEST(BenchstatTest, SingleSampleHasZeroStddev) {
  const Snapshot snapshot = Aggregate("one", {{{"wall_seconds", 1.5}}});
  const Measurement& m = snapshot.measurements.at("wall_seconds");
  EXPECT_DOUBLE_EQ(m.stddev, 0.0);
  EXPECT_DOUBLE_EQ(m.mean, 1.5);
  EXPECT_DOUBLE_EQ(m.min, 1.5);
}

TEST(BenchstatTest, JsonRoundTripPreservesSnapshot) {
  const Snapshot original = MakeSnapshot(
      "fig7b", {{"span/bulk_dp", MakeMeasurement(1.92, 0.05)},
                {"hist/lbs/serve_seconds/mean_seconds",
                 MakeMeasurement(3.5e-05, 1e-06)}});

  Result<json::Value> document = json::Parse(ToJson(original));
  ASSERT_TRUE(document.ok()) << document.status().ToString();
  Result<Snapshot> parsed = FromJson(*document);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  EXPECT_EQ(parsed->name, original.name);
  EXPECT_EQ(parsed->iterations, original.iterations);
  ASSERT_EQ(parsed->measurements.size(), original.measurements.size());
  for (const auto& [key, m] : original.measurements) {
    ASSERT_TRUE(parsed->measurements.count(key)) << key;
    const Measurement& got = parsed->measurements.at(key);
    EXPECT_NEAR(got.mean, m.mean, 1e-12) << key;
    EXPECT_NEAR(got.stddev, m.stddev, 1e-12) << key;
    EXPECT_NEAR(got.min, m.min, 1e-12) << key;
    EXPECT_EQ(got.samples, m.samples) << key;
  }
}

TEST(BenchstatTest, FileRoundTripCreatesParentDirectories) {
  const Snapshot original =
      MakeSnapshot("smoke", {{"wall_seconds", MakeMeasurement(0.3, 0.01)}});
  const std::string path =
      ::testing::TempDir() + "/benchstat_test/deep/BENCH_smoke.json";
  ASSERT_TRUE(WriteSnapshotFile(original, path).ok());
  Result<Snapshot> loaded = LoadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->name, "smoke");
  EXPECT_NEAR(loaded->measurements.at("wall_seconds").mean, 0.3, 1e-12);
}

TEST(BenchstatTest, LoadRejectsMissingAndMalformedFiles) {
  EXPECT_EQ(LoadSnapshotFile("/no/such/BENCH.json").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(LoadSnapshotFile(::testing::TempDir()).status().code(),
            StatusCode::kInternal);  // a directory is unreadable, not empty
  const std::string path = ::testing::TempDir() + "/benchstat_bad.json";
  ASSERT_TRUE(WriteTextFile(path, "{not json").ok());
  EXPECT_FALSE(LoadSnapshotFile(path).ok());
  ASSERT_TRUE(WriteTextFile(path, "{\"name\": \"x\"}").ok());
  EXPECT_FALSE(LoadSnapshotFile(path).ok());  // no measurements object
}

// End-to-end against the real exporter: spans become "span/<path>" totals
// and histograms become "hist/<name>/mean_seconds"; counters are skipped.
TEST(BenchstatTest, ExtractsMeasurementsFromRealMetricsJson) {
  Configure(ObsOptions{.enabled = true});
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Reset();
  {
    ScopedSpan span("bench_phase", ScopedSpan::kRoot);
  }
  Histogram& histogram = registry.GetHistogram("serve_seconds");
  histogram.Observe(0.010);
  histogram.Observe(0.030);
  registry.GetCounter("cache/hits").Increment(7);

  Result<json::Value> document = json::Parse(ExportJson(registry.Snapshot()));
  ASSERT_TRUE(document.ok()) << document.status().ToString();
  const std::map<std::string, double> measurements =
      MeasurementsFromMetricsJson(*document);

  ASSERT_TRUE(measurements.count("span/bench_phase"));
  EXPECT_GE(measurements.at("span/bench_phase"), 0.0);
  ASSERT_TRUE(measurements.count("hist/serve_seconds/mean_seconds"));
  EXPECT_NEAR(measurements.at("hist/serve_seconds/mean_seconds"), 0.020,
              1e-09);
  for (const auto& [key, value] : measurements) {
    EXPECT_EQ(key.find("cache/hits"), std::string::npos) << key;
  }
}

// The three verdict scenarios of the regression gate, with the default
// options (threshold 10%, noise gate 2 sigma).
TEST(BenchstatTest, CompareFlagsRegressionImprovementAndNoise) {
  const CompareOptions options;
  const Snapshot baseline = MakeSnapshot(
      "base", {{"regressed", MakeMeasurement(1.0, 0.01)},
               {"improved", MakeMeasurement(1.0, 0.01)},
               {"noisy", MakeMeasurement(1.0, 0.5)},
               {"steady", MakeMeasurement(1.0, 0.01)},
               {"removed", MakeMeasurement(1.0, 0.0)}});
  const Snapshot candidate = MakeSnapshot(
      "cand", {{"regressed", MakeMeasurement(1.2, 0.01)},  // +20% slowdown
               {"improved", MakeMeasurement(0.8, 0.01)},
               {"noisy", MakeMeasurement(1.2, 0.5)},
               {"steady", MakeMeasurement(1.05, 0.01)},
               {"added", MakeMeasurement(2.0, 0.0)}});

  const CompareReport report = Compare(baseline, candidate, options);
  ASSERT_EQ(report.rows.size(), 4u);
  std::map<std::string, Verdict> verdict_of;
  for (const KeyComparison& row : report.rows) {
    verdict_of[row.key] = row.verdict;
  }
  EXPECT_EQ(verdict_of.at("regressed"), Verdict::kRegression);
  EXPECT_EQ(verdict_of.at("improved"), Verdict::kImprovement);
  EXPECT_EQ(verdict_of.at("noisy"), Verdict::kWithinNoise);
  EXPECT_EQ(verdict_of.at("steady"), Verdict::kUnchanged);
  EXPECT_TRUE(report.HasRegression());

  ASSERT_EQ(report.only_in_baseline.size(), 1u);
  EXPECT_EQ(report.only_in_baseline[0], "removed");
  ASSERT_EQ(report.only_in_candidate.size(), 1u);
  EXPECT_EQ(report.only_in_candidate[0], "added");

  for (const KeyComparison& row : report.rows) {
    if (row.key == "regressed") {
      EXPECT_NEAR(row.delta_percent, 20.0, 1e-09);
    } else if (row.key == "improved") {
      EXPECT_NEAR(row.delta_percent, -20.0, 1e-09);
    }
  }
}

TEST(BenchstatTest, CompareWithoutRegressionsPasses) {
  const CompareOptions options;
  const Snapshot baseline =
      MakeSnapshot("base", {{"a", MakeMeasurement(1.0, 0.01)}});
  const Snapshot candidate =
      MakeSnapshot("cand", {{"a", MakeMeasurement(0.99, 0.01)}});
  EXPECT_FALSE(Compare(baseline, candidate, options).HasRegression());
}

TEST(BenchstatTest, NoiseGateCanBeDisabled) {
  CompareOptions options;
  options.noise_sigma = 0.0;
  const Snapshot baseline =
      MakeSnapshot("base", {{"noisy", MakeMeasurement(1.0, 0.5)}});
  const Snapshot candidate =
      MakeSnapshot("cand", {{"noisy", MakeMeasurement(1.2, 0.5)}});
  const CompareReport report = Compare(baseline, candidate, options);
  ASSERT_EQ(report.rows.size(), 1u);
  EXPECT_EQ(report.rows[0].verdict, Verdict::kRegression);
}

TEST(BenchstatTest, ReportTableListsVerdictsAndSummary) {
  const Snapshot baseline = MakeSnapshot(
      "base", {{"span/bulk_dp", MakeMeasurement(1.0, 0.01)}});
  const Snapshot candidate = MakeSnapshot(
      "cand", {{"span/bulk_dp", MakeMeasurement(1.5, 0.01)}});
  const std::string table =
      ReportTable(Compare(baseline, candidate, CompareOptions()));
  EXPECT_NE(table.find("span/bulk_dp"), std::string::npos) << table;
  EXPECT_NE(table.find("REGRESSION"), std::string::npos) << table;
  EXPECT_NE(table.find("+50.0%"), std::string::npos) << table;
  EXPECT_NE(table.find("1 regression(s)"), std::string::npos) << table;
}

}  // namespace
}  // namespace benchstat
}  // namespace obs
}  // namespace pasa
