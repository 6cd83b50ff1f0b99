// Unit tests for the windowed telemetry: sliding histogram/rate slice
// rotation and expiry, quantile interpolation, and the WindowRegistry
// arming semantics.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/window.h"

namespace pasa {
namespace obs {
namespace {

// A 16-slice window over 16'000 us gives slices of exactly 1'000 us, which
// keeps the expiry arithmetic in the tests exact.
constexpr uint64_t kWindow = 16'000;
constexpr uint64_t kSlice = kWindow / kWindowSlices;

class WindowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WindowRegistry::Global().Disable();
    WindowRegistry::Global().Reset();
  }
  void TearDown() override {
    WindowRegistry::Global().Disable();
    WindowRegistry::Global().Reset();
  }
};

TEST_F(WindowTest, HistogramCountsOnlyTheCurrentWindow) {
  SlidingWindowHistogram h({1.0, 2.0, 5.0}, kWindow);
  h.Observe(0.5, /*now=*/0);
  h.Observe(1.5, /*now=*/kSlice);
  SlidingWindowHistogram::Stats stats = h.Snapshot(kSlice);
  EXPECT_EQ(stats.count, 2u);
  EXPECT_DOUBLE_EQ(stats.sum, 2.0);

  // A snapshot taken more than a window later sees nothing.
  stats = h.Snapshot(kSlice + 2 * kWindow);
  EXPECT_EQ(stats.count, 0u);
  EXPECT_DOUBLE_EQ(stats.sum, 0.0);
  EXPECT_DOUBLE_EQ(stats.p50, 0.0);
}

TEST_F(WindowTest, HistogramSliceReclaimDropsExpiredObservations) {
  SlidingWindowHistogram h({1.0}, kWindow);
  h.Observe(0.5, /*now=*/0);  // slice index 0
  // One full rotation later the same slot is reclaimed for a new epoch;
  // the old observation must not leak into the new tenancy.
  h.Observe(0.5, kWindow);  // slice index 16 -> same slot as index 0
  const SlidingWindowHistogram::Stats stats = h.Snapshot(kWindow);
  EXPECT_EQ(stats.count, 1u);
}

TEST_F(WindowTest, HistogramQuantilesInterpolateWithinBuckets) {
  SlidingWindowHistogram h({10.0, 20.0, 50.0}, kWindow);
  // 90 observations in (0,10], 10 in (10,20]: p50 lands mid-bucket-one,
  // p95 inside bucket two, p99 near its top.
  for (int i = 0; i < 90; ++i) h.Observe(5.0, 0);
  for (int i = 0; i < 10; ++i) h.Observe(15.0, 0);
  const SlidingWindowHistogram::Stats stats = h.Snapshot(0);
  EXPECT_EQ(stats.count, 100u);
  EXPECT_GT(stats.p50, 0.0);
  EXPECT_LE(stats.p50, 10.0);
  EXPECT_GT(stats.p95, 10.0);
  EXPECT_LE(stats.p95, 20.0);
  EXPECT_GE(stats.p99, stats.p95);
  EXPECT_LE(stats.p99, 20.0);
}

TEST_F(WindowTest, HistogramInfBucketReportsLargestBound) {
  SlidingWindowHistogram h({1.0, 2.0}, kWindow);
  h.Observe(99.0, 0);  // lands in +Inf, which has no finite upper edge
  const SlidingWindowHistogram::Stats stats = h.Snapshot(0);
  EXPECT_DOUBLE_EQ(stats.p50, 2.0);
  EXPECT_DOUBLE_EQ(stats.p99, 2.0);
}

TEST_F(WindowTest, RateSlidesGoodAndTotal) {
  SlidingWindowRate rate(kWindow);
  rate.Record(true, 0);
  rate.Record(true, 0);
  rate.Record(false, kSlice);
  SlidingWindowRate::Stats stats = rate.Snapshot(kSlice);
  EXPECT_EQ(stats.good, 2u);
  EXPECT_EQ(stats.total, 3u);
  EXPECT_DOUBLE_EQ(stats.rate, 2.0 / 3.0);

  // Advance until only the failure's slice is still in the window.
  stats = rate.Snapshot(kSlice + kWindow - kSlice);
  EXPECT_EQ(stats.good, 0u);
  EXPECT_EQ(stats.total, 1u);
  EXPECT_DOUBLE_EQ(stats.rate, 0.0);

  // Empty window: rate is 0, not NaN.
  stats = rate.Snapshot(10 * kWindow);
  EXPECT_EQ(stats.total, 0u);
  EXPECT_DOUBLE_EQ(stats.rate, 0.0);
}

TEST_F(WindowTest, RegistryIsDisarmedByDefaultAndGetOrCreates) {
  WindowRegistry& registry = WindowRegistry::Global();
  EXPECT_FALSE(registry.enabled());
  SlidingWindowHistogram& h =
      registry.GetHistogram("window_test/lat", {1.0, 2.0}, kWindow);
  // Same name returns the same instance; later arguments are ignored.
  EXPECT_EQ(&h, &registry.GetHistogram("window_test/lat", {99.0}, 1));
  EXPECT_EQ(h.upper_bounds(), (std::vector<double>{1.0, 2.0}));
  SlidingWindowRate& r = registry.GetRate("window_test/rate", kWindow);
  EXPECT_EQ(&r, &registry.GetRate("window_test/rate"));
}

TEST_F(WindowTest, RegistrySnapshotCoversAllWindows) {
  WindowRegistry& registry = WindowRegistry::Global();
  registry.Enable();
  EXPECT_TRUE(registry.enabled());
  registry.GetHistogram("window_test/snap_lat", {1.0}, kWindow)
      .Observe(0.5, 0);
  registry.GetRate("window_test/snap_rate", kWindow).Record(true, 0);
  const WindowSnapshot snapshot = registry.Snapshot(0);
  ASSERT_EQ(snapshot.histograms.count("window_test/snap_lat"), 1u);
  EXPECT_EQ(snapshot.histograms.at("window_test/snap_lat").count, 1u);
  EXPECT_EQ(snapshot.histograms.at("window_test/snap_lat").window_micros,
            kWindow);
  ASSERT_EQ(snapshot.rates.count("window_test/snap_rate"), 1u);
  EXPECT_EQ(snapshot.rates.at("window_test/snap_rate").good, 1u);

  registry.Reset();
  const WindowSnapshot after = registry.Snapshot(0);
  EXPECT_EQ(after.histograms.at("window_test/snap_lat").count, 0u);
  EXPECT_EQ(after.rates.at("window_test/snap_rate").total, 0u);
}

TEST_F(WindowTest, DefaultBoundsComeFromTheLatencyBuckets) {
  SlidingWindowHistogram h({}, kWindow);
  EXPECT_FALSE(h.upper_bounds().empty());
  EXPECT_EQ(h.window_micros(), kWindow);
}

}  // namespace
}  // namespace obs
}  // namespace pasa
