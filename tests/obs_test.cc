// Unit tests for the observability layer: metric primitives, the global
// registry, hierarchical span tracing, the runtime kill switch and the
// JSON / Prometheus exporters.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/mem.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pasa {
namespace obs {
namespace {

// Every test runs against the process-wide registry and kill switch, so
// start each one enabled and zeroed.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Configure(ObsOptions{.enabled = true});
    MetricsRegistry::Global().Reset();
  }
  void TearDown() override { Configure(ObsOptions{.enabled = true}); }
};

TEST_F(ObsTest, CounterIncrements) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST_F(ObsTest, CounterIsExactUnderConcurrency) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(), static_cast<uint64_t>(kThreads * kPerThread));
}

TEST_F(ObsTest, GaugeLastWriteWins) {
  Gauge gauge;
  gauge.Set(1.5);
  gauge.Set(-2.25);
  EXPECT_DOUBLE_EQ(gauge.value(), -2.25);
}

TEST_F(ObsTest, HistogramBucketSemantics) {
  Histogram h({1.0, 2.0, 5.0});
  // A value equal to an upper bound lands in that bucket (le semantics).
  h.Observe(0.5);   // bucket le=1
  h.Observe(1.0);   // bucket le=1
  h.Observe(1.5);   // bucket le=2
  h.Observe(5.0);   // bucket le=5
  h.Observe(99.0);  // +Inf bucket
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 5.0 + 99.0);
  const std::vector<uint64_t> buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);  // 3 bounds + implicit +Inf
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST_F(ObsTest, RegistryDefaultsHistogramBucketsAndKeepsFirstBounds) {
  auto& registry = MetricsRegistry::Global();
  Histogram& defaulted = registry.GetHistogram("obs_test/defaulted");
  EXPECT_EQ(defaulted.upper_bounds(), DefaultLatencyBuckets());
  Histogram& custom = registry.GetHistogram("obs_test/custom", {1.0, 2.0});
  // Bounds are fixed at first registration; later lookups ignore them.
  Histogram& again = registry.GetHistogram("obs_test/custom", {7.0});
  EXPECT_EQ(&custom, &again);
  EXPECT_EQ(again.upper_bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST_F(ObsTest, MismatchedHistogramBoundsAreCountedNotSilent) {
  auto& registry = MetricsRegistry::Global();
  Counter& mismatches =
      registry.GetCounter("obs/histogram_bounds_mismatches");
  const uint64_t before = mismatches.value();
  Histogram& first = registry.GetHistogram("obs_test/mismatch", {1.0, 2.0});
  // Same bounds (in any order): no mismatch recorded.
  registry.GetHistogram("obs_test/mismatch", {2.0, 1.0});
  EXPECT_EQ(mismatches.value(), before);
  // Defaulted bounds on lookup: also not a mismatch.
  registry.GetHistogram("obs_test/mismatch");
  EXPECT_EQ(mismatches.value(), before);
  // Genuinely different bounds: first registration wins, but the footgun
  // is now visible as a counter (and a warning log).
  Histogram& again = registry.GetHistogram("obs_test/mismatch", {7.0});
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(again.upper_bounds(), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(mismatches.value(), before + 1);
}

TEST_F(ObsTest, SpanStatsTracksExtremes) {
  SpanStats stats;
  EXPECT_TRUE(std::isnan(stats.min_seconds()));
  EXPECT_TRUE(std::isnan(stats.max_seconds()));
  stats.Record(0.25);
  stats.Record(0.75, 3);
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_DOUBLE_EQ(stats.total_seconds(), 1.0);
  EXPECT_DOUBLE_EQ(stats.min_seconds(), 0.25);
  EXPECT_DOUBLE_EQ(stats.max_seconds(), 0.75);
}

TEST_F(ObsTest, ScopedSpanNestsPaths) {
  {
    ScopedSpan outer("outer", ScopedSpan::kRoot);
    EXPECT_EQ(outer.path(), "outer");
    EXPECT_EQ(CurrentSpanPath(), "outer");
    {
      ScopedSpan inner("inner");
      EXPECT_EQ(inner.path(), "outer/inner");
      EXPECT_EQ(CurrentSpanPath(), "outer/inner");
      // A kRoot span ignores the enclosing stack.
      ScopedSpan rooted("rooted", ScopedSpan::kRoot);
      EXPECT_EQ(rooted.path(), "rooted");
    }
    EXPECT_EQ(CurrentSpanPath(), "outer");
  }
  EXPECT_EQ(CurrentSpanPath(), "");
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  ASSERT_EQ(snapshot.spans.count("outer"), 1u);
  ASSERT_EQ(snapshot.spans.count("outer/inner"), 1u);
  ASSERT_EQ(snapshot.spans.count("rooted"), 1u);
  EXPECT_EQ(snapshot.spans.at("outer").count, 1u);
  EXPECT_GE(snapshot.spans.at("outer").total_seconds,
            snapshot.spans.at("outer/inner").total_seconds);
}

TEST_F(ObsTest, ScopedHistogramTimerObservesLifetime) {
  Histogram& h = MetricsRegistry::Global().GetHistogram("obs_test/timer");
  { ScopedHistogramTimer timer(h); }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.sum(), 0.0);
}

TEST_F(ObsTest, DisabledModeIsInert) {
  auto& registry = MetricsRegistry::Global();
  Counter& counter = registry.GetCounter("obs_test/disabled_counter");
  Gauge& gauge = registry.GetGauge("obs_test/disabled_gauge");
  Histogram& histogram = registry.GetHistogram("obs_test/disabled_histogram");

  Configure(ObsOptions{.enabled = false});
  EXPECT_FALSE(Enabled());
  counter.Increment(100);
  gauge.Set(3.5);
  histogram.Observe(1.0);
  registry.RecordSpan("obs_test/disabled_phase", 1.0);
  {
    ScopedSpan span("obs_test/disabled_span", ScopedSpan::kRoot);
    EXPECT_EQ(span.path(), "");  // inert: no path, no stack entry
    EXPECT_EQ(CurrentSpanPath(), "");
  }
  Configure(ObsOptions{.enabled = true});

  EXPECT_EQ(counter.value(), 0u);
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  EXPECT_EQ(histogram.count(), 0u);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.spans.count("obs_test/disabled_phase"), 0u);
  EXPECT_EQ(snapshot.spans.count("obs_test/disabled_span"), 0u);
}

TEST_F(ObsTest, ResetZeroesButKeepsReferences) {
  auto& registry = MetricsRegistry::Global();
  Counter& counter = registry.GetCounter("obs_test/reset_me");
  counter.Increment(7);
  registry.Reset();
  EXPECT_EQ(counter.value(), 0u);
  // Same object is returned after Reset, and it still works.
  EXPECT_EQ(&registry.GetCounter("obs_test/reset_me"), &counter);
  counter.Increment();
  EXPECT_EQ(counter.value(), 1u);
}

TEST_F(ObsTest, JsonExportRoundTrip) {
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("obs_test/hits").Increment(3);
  registry.GetGauge("obs_test/load").Set(0.5);
  registry.GetHistogram("obs_test/lat", {0.1, 1.0}).Observe(0.05);
  registry.RecordSpan("obs_test/phase", 2.0, 4);

  const std::string json = ExportJson(registry.Snapshot());
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test/hits\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test/load\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"le\": \"+Inf\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test/phase\""), std::string::npos);
  EXPECT_NE(json.find("\"total_seconds\": 2"), std::string::npos);
  // Deterministic: same snapshot serializes identically.
  EXPECT_EQ(json, ExportJson(registry.Snapshot()));
}

TEST_F(ObsTest, ExportFoldedWritesSortedSelfTimes) {
  MetricsSnapshot snapshot;
  auto self = [&](const std::string& path, double seconds) {
    snapshot.spans[path].count = 1;
    snapshot.spans[path].total_seconds = 1.0;
    snapshot.spans[path].self_seconds = seconds;
  };
  self("csp/handle", 250e-6);
  self("bulk_dp", 1500e-6);
  self("bulk_dp/leaf_init", 0.0);  // a RecordSpan phase: no self time
  self("a/b", 1e-6);
  self("a:x", 3e-6);  // sorts before "a;b" once '/' becomes ';'
  self("tiny", 0.4e-6);  // rounds to 0 us
  EXPECT_EQ(ExportFolded(snapshot),
            "a:x 3\n"
            "a;b 1\n"
            "bulk_dp 1500\n"
            "csp;handle 250\n");
  EXPECT_EQ(ExportFolded(MetricsSnapshot{}), "");
  // The other exporters do not print self time.
  EXPECT_EQ(ExportJson(snapshot).find("self"), std::string::npos);
  EXPECT_EQ(ExportPrometheus(snapshot).find("self"), std::string::npos);
}

TEST_F(ObsTest, ScopedSpanBooksSelfTimeNetOfChildren) {
  {
    ScopedSpan outer("outer", ScopedSpan::kRoot);
    { ScopedSpan inner("inner"); }
    { ScopedSpan rooted("rooted", ScopedSpan::kRoot); }
  }
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const auto& outer = snapshot.spans.at("outer");
  const auto& inner = snapshot.spans.at("outer/inner");
  const auto& rooted = snapshot.spans.at("rooted");
  EXPECT_DOUBLE_EQ(inner.self_seconds, inner.total_seconds);
  EXPECT_DOUBLE_EQ(rooted.self_seconds, rooted.total_seconds);
  EXPECT_NEAR(outer.self_seconds,
              outer.total_seconds - inner.total_seconds -
                  rooted.total_seconds,
              1e-12);
  // A RecordSpan phase books no self time.
  MetricsRegistry::Global().RecordSpan("obs_test/phase", 2.0);
  EXPECT_EQ(MetricsRegistry::Global().Snapshot().spans.at("obs_test/phase")
                .self_seconds,
            0.0);
}

TEST_F(ObsTest, PrometheusExportSanitizesAndCumulates) {
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("obs_test/hits").Increment(3);
  Histogram& h = registry.GetHistogram("obs_test/lat_seconds", {0.1, 1.0});
  h.Observe(0.05);
  h.Observe(0.5);
  registry.RecordSpan("obs_test/phase", 2.0);

  const std::string text = ExportPrometheus(registry.Snapshot());
  // Counter: sanitized, prefixed, typed.
  EXPECT_NE(text.find("# TYPE pasa_obs_test_hits counter"), std::string::npos);
  EXPECT_NE(text.find("pasa_obs_test_hits 3"), std::string::npos);
  // Histogram buckets are cumulative: le="1" covers both observations.
  EXPECT_NE(text.find("pasa_obs_test_lat_seconds_bucket{le=\"0.1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("pasa_obs_test_lat_seconds_bucket{le=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("pasa_obs_test_lat_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("pasa_obs_test_lat_seconds_count 2"), std::string::npos);
  // Spans keep the original path as a label.
  EXPECT_NE(text.find("pasa_span_seconds_total{span=\"obs_test/phase\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("pasa_span_count{span=\"obs_test/phase\"} 1"),
            std::string::npos);
}

TEST_F(ObsTest, PrometheusExportEmitsHelpLinesAndPassesTheChecker) {
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("obs_test/hits").Increment(3);
  registry.GetGauge("obs_test/load").Set(0.5);
  registry.GetHistogram("obs_test/lat_seconds", {0.1, 1.0}).Observe(0.05);
  registry.RecordSpan("obs_test/phase", 2.0);

  const std::string text = ExportPrometheus(registry.Snapshot());
  EXPECT_NE(text.find("# HELP pasa_obs_test_hits "), std::string::npos);
  EXPECT_NE(text.find("# HELP pasa_obs_test_load "), std::string::npos);
  EXPECT_NE(text.find("# HELP pasa_obs_test_lat_seconds "), std::string::npos);
  const Status format = CheckPrometheusText(text);
  EXPECT_TRUE(format.ok()) << format.ToString() << "\n" << text;
}

TEST_F(ObsTest, PrometheusEscapesHostileSpanNames) {
  auto& registry = MetricsRegistry::Global();
  // A span name with every character the text format must escape: quote,
  // backslash, newline.
  const std::string hostile = "evil\"span\\with\nnewline";
  registry.RecordSpan(hostile, 1.0);
  registry.RecordSpan("ok_span", 2.0);

  const std::string text = ExportPrometheus(registry.Snapshot());
  // The escaped label value appears...
  EXPECT_NE(text.find("span=\"evil\\\"span\\\\with\\nnewline\""),
            std::string::npos)
      << text;
  // ...and no raw newline leaked into the middle of a sample line: the
  // whole exposition still parses.
  const Status format = CheckPrometheusText(text);
  EXPECT_TRUE(format.ok()) << format.ToString() << "\n" << text;
}

TEST_F(ObsTest, LabeledNameBuildsCanonicalSeriesKeys) {
  EXPECT_EQ(LabeledName("csp/requests", {}), "csp/requests");
  // Labels sort by key; values get escaped.
  EXPECT_EQ(LabeledName("csp/requests",
                        {{"zone", "west"}, {"shard", "a\"b"}}),
            "csp/requests{shard=\"a\\\"b\",zone=\"west\"}");
  // Label keys are sanitized to the Prometheus label-name charset.
  EXPECT_EQ(LabeledName("x", {{"bad key!", "v"}}), "x{bad_key_=\"v\"}");
  EXPECT_EQ(PromLabelValueEscape("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
}

TEST_F(ObsTest, LabeledFamiliesStayContiguousInTheExport) {
  auto& registry = MetricsRegistry::Global();
  // "obs_test/reqs2" sorts lexically BETWEEN "obs_test/reqs" and
  // "obs_test/reqs{...}", so naive map-order emission would interleave the
  // family and break Prometheus ingestion.
  registry.GetCounter(LabeledName("obs_test/reqs", {{"shard", "a"}}))
      .Increment(1);
  registry.GetCounter(LabeledName("obs_test/reqs", {{"shard", "b"}}))
      .Increment(2);
  registry.GetCounter("obs_test/reqs2").Increment(3);

  const std::string text = ExportPrometheus(registry.Snapshot());
  EXPECT_NE(text.find("pasa_obs_test_reqs{shard=\"a\"} 1"), std::string::npos);
  EXPECT_NE(text.find("pasa_obs_test_reqs{shard=\"b\"} 2"), std::string::npos);
  // Exactly one TYPE header for the labeled family.
  const std::string header = "# TYPE pasa_obs_test_reqs counter";
  const size_t first = text.find(header);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find(header, first + 1), std::string::npos);
  const Status format = CheckPrometheusText(text);
  EXPECT_TRUE(format.ok()) << format.ToString() << "\n" << text;
}

TEST_F(ObsTest, CheckPrometheusTextAcceptsWellFormedExposition) {
  EXPECT_TRUE(CheckPrometheusText("# HELP m help text\n"
                                  "# TYPE m counter\n"
                                  "m 1\n"
                                  "m2{l=\"a b\"} 2.5\n")
                  .ok());
}

TEST_F(ObsTest, CheckPrometheusTextRejectsMalformedExposition) {
  // Empty / missing trailing newline.
  EXPECT_FALSE(CheckPrometheusText("").ok());
  EXPECT_FALSE(CheckPrometheusText("m 1").ok());
  // Bad metric name (leading digit) and bad value.
  EXPECT_FALSE(CheckPrometheusText("2bad 1\n").ok());
  EXPECT_FALSE(CheckPrometheusText("m notanumber\n").ok());
  // Unknown TYPE and duplicate TYPE.
  EXPECT_FALSE(CheckPrometheusText("# TYPE m flavor\nm 1\n").ok());
  EXPECT_FALSE(
      CheckPrometheusText("# TYPE m counter\n# TYPE m counter\nm 1\n").ok());
  // Unescaped quote / invalid escape inside a label value.
  EXPECT_FALSE(CheckPrometheusText("m{l=\"a\\q\"} 1\n").ok());
  // Interleaved families: 'a' reopened after 'b' started.
  EXPECT_FALSE(CheckPrometheusText("# TYPE a counter\n"
                                   "a 1\n"
                                   "# TYPE b counter\n"
                                   "b 1\n"
                                   "a 2\n")
                   .ok());
}

// Replicates the exporter's name mangling: "pasa_" + path with every
// non-[a-zA-Z0-9_] byte replaced by '_'; a LabeledName key keeps its
// "{k=\"v\"}" suffix verbatim.
std::string PromSampleOf(const std::string& key) {
  const size_t brace = key.find('{');
  const std::string path =
      brace == std::string::npos ? key : key.substr(0, brace);
  std::string out = "pasa_";
  for (const char c : path) {
    out += (std::isalnum(static_cast<unsigned char>(c)) || c == '_') ? c
                                                                     : '_';
  }
  if (brace != std::string::npos) out += key.substr(brace);
  return out;
}

// Lines of `text` starting with `sample` immediately followed by a space
// (the exposition's name/value separator), i.e. whole-name matches only.
size_t CountSampleLines(const std::string& text, const std::string& sample) {
  size_t n = 0;
  size_t pos = 0;
  while ((pos = text.find(sample, pos)) != std::string::npos) {
    const bool line_start = pos == 0 || text[pos - 1] == '\n';
    const size_t end = pos + sample.size();
    if (line_start && end < text.size() && text[end] == ' ') ++n;
    pos = end;
  }
  return n;
}

// Exporter completeness: every metric registered in the snapshot — plain
// counters and gauges, LabeledName families (including the accountant's
// pasa_mem_bytes{subsystem="..."} gauges) and histograms — appears in the
// exposition exactly once, and the whole text passes the format checker
// (which additionally enforces one TYPE header per family and contiguous
// families). A metric silently dropped or double-emitted by the exporter
// fails here before any dashboard notices.
TEST_F(ObsTest, PrometheusExporterEmitsEveryRegisteredMetricExactlyOnce) {
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("obs_test/complete/count").Increment(3);
  registry
      .GetCounter(LabeledName("obs_test/complete/labeled", {{"shard", "a"}}))
      .Increment();
  registry
      .GetCounter(LabeledName("obs_test/complete/labeled", {{"shard", "b"}}))
      .Increment(2);
  registry.GetGauge("obs_test/complete/gauge").Set(1.5);
  registry.GetHistogram("obs_test/complete/hist", {0.1, 1.0}).Observe(0.5);
  MemoryAccountant::Global().GetCounter("obs_test/mem_subsystem").Set(64);
  MemoryAccountant::Global().PublishGauges(registry);

  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_GE(snapshot.counters.size() + snapshot.gauges.size(), 5u);
  const std::string text = ExportPrometheus(snapshot);
  const Status format = CheckPrometheusText(text);
  ASSERT_TRUE(format.ok()) << format.ToString();

  for (const auto& [key, value] : snapshot.counters) {
    EXPECT_EQ(CountSampleLines(text, PromSampleOf(key)), 1u) << key;
  }
  for (const auto& [key, value] : snapshot.gauges) {
    EXPECT_EQ(CountSampleLines(text, PromSampleOf(key)), 1u) << key;
  }
  for (const auto& [key, data] : snapshot.histograms) {
    EXPECT_EQ(CountSampleLines(text, PromSampleOf(key) + "_sum"), 1u) << key;
    EXPECT_EQ(CountSampleLines(text, PromSampleOf(key) + "_count"), 1u)
        << key;
    // One bucket line per bound plus +Inf.
    EXPECT_EQ(
        CountSampleLines(text, PromSampleOf(key) + "_bucket{le=\"+Inf\"}"),
        1u)
        << key;
  }
  MemoryAccountant::Global().Reset();
}

}  // namespace
}  // namespace obs
}  // namespace pasa
