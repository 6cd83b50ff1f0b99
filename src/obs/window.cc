#include "obs/window.h"

#include <algorithm>

#include "obs/metrics.h"

namespace pasa {
namespace obs {
namespace {

uint64_t SliceMicros(uint64_t window_micros) {
  return std::max<uint64_t>(1, window_micros / kWindowSlices);
}

/// First slice index still inside the window that ends at `current`.
uint64_t OldestValidSlice(uint64_t current) {
  return current >= kWindowSlices - 1 ? current - (kWindowSlices - 1) : 0;
}

}  // namespace

SlidingWindowHistogram::SlidingWindowHistogram(
    std::vector<double> upper_bounds, uint64_t window_micros)
    : bounds_(upper_bounds.empty() ? DefaultLatencyBuckets()
                                   : std::move(upper_bounds)),
      window_micros_(std::max<uint64_t>(1, window_micros)),
      slice_micros_(SliceMicros(window_micros_)),
      slices_(kWindowSlices) {
  std::sort(bounds_.begin(), bounds_.end());
  for (Slice& slice : slices_) slice.buckets.resize(bounds_.size() + 1, 0);
}

void SlidingWindowHistogram::Observe(double value, uint64_t now_micros) {
  const uint64_t index = now_micros / slice_micros_;
  std::lock_guard<std::mutex> lock(mu_);
  Slice& slice = slices_[index % kWindowSlices];
  if (slice.index != index) {
    // The slot's previous tenancy fell out of the window; reclaim it.
    slice.index = index;
    std::fill(slice.buckets.begin(), slice.buckets.end(), 0);
    slice.count = 0;
    slice.sum = 0.0;
  }
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  ++slice.buckets[bucket];
  ++slice.count;
  slice.sum += value;
}

SlidingWindowHistogram::Stats SlidingWindowHistogram::Snapshot(
    uint64_t now_micros) const {
  const uint64_t current = now_micros / slice_micros_;
  const uint64_t oldest = OldestValidSlice(current);
  Stats stats;
  std::vector<uint64_t> merged(bounds_.size() + 1, 0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Slice& slice : slices_) {
      if (slice.index == UINT64_MAX || slice.index < oldest ||
          slice.index > current) {
        continue;
      }
      for (size_t i = 0; i < merged.size(); ++i) merged[i] += slice.buckets[i];
      stats.count += slice.count;
      stats.sum += slice.sum;
    }
  }
  // Quantiles by linear interpolation inside the winning bucket; the +Inf
  // bucket has no finite upper edge, so it reports the largest bound.
  auto quantile = [&](double q) -> double {
    if (stats.count == 0 || bounds_.empty()) return 0.0;
    const double target = q * static_cast<double>(stats.count);
    uint64_t cumulative = 0;
    for (size_t i = 0; i < merged.size(); ++i) {
      const uint64_t before = cumulative;
      cumulative += merged[i];
      if (static_cast<double>(cumulative) < target) continue;
      if (i >= bounds_.size()) return bounds_.back();
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      const double hi = bounds_[i];
      if (merged[i] == 0) return hi;
      const double fraction = (target - static_cast<double>(before)) /
                              static_cast<double>(merged[i]);
      return lo + (hi - lo) * std::clamp(fraction, 0.0, 1.0);
    }
    return bounds_.back();
  };
  stats.p50 = quantile(0.50);
  stats.p95 = quantile(0.95);
  stats.p99 = quantile(0.99);
  return stats;
}

void SlidingWindowHistogram::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Slice& slice : slices_) {
    slice.index = UINT64_MAX;
    std::fill(slice.buckets.begin(), slice.buckets.end(), 0);
    slice.count = 0;
    slice.sum = 0.0;
  }
}

SlidingWindowRate::SlidingWindowRate(uint64_t window_micros)
    : window_micros_(std::max<uint64_t>(1, window_micros)),
      slice_micros_(SliceMicros(window_micros_)),
      slices_(kWindowSlices) {}

void SlidingWindowRate::Record(bool good, uint64_t now_micros) {
  const uint64_t index = now_micros / slice_micros_;
  std::lock_guard<std::mutex> lock(mu_);
  Slice& slice = slices_[index % kWindowSlices];
  if (slice.index != index) {
    slice.index = index;
    slice.good = 0;
    slice.total = 0;
  }
  if (good) ++slice.good;
  ++slice.total;
}

SlidingWindowRate::Stats SlidingWindowRate::Snapshot(
    uint64_t now_micros) const {
  const uint64_t current = now_micros / slice_micros_;
  const uint64_t oldest = OldestValidSlice(current);
  Stats stats;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Slice& slice : slices_) {
    if (slice.index == UINT64_MAX || slice.index < oldest ||
        slice.index > current) {
      continue;
    }
    stats.good += slice.good;
    stats.total += slice.total;
  }
  stats.rate = stats.total == 0 ? 0.0
                                : static_cast<double>(stats.good) /
                                      static_cast<double>(stats.total);
  return stats;
}

void SlidingWindowRate::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Slice& slice : slices_) {
    slice.index = UINT64_MAX;
    slice.good = 0;
    slice.total = 0;
  }
}

WindowRegistry& WindowRegistry::Global() {
  static WindowRegistry* registry = new WindowRegistry();
  return *registry;
}

SlidingWindowHistogram& WindowRegistry::GetHistogram(
    const std::string& name, std::vector<double> upper_bounds,
    uint64_t window_micros) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<SlidingWindowHistogram>(std::move(upper_bounds),
                                                    window_micros);
  }
  return *slot;
}

SlidingWindowRate& WindowRegistry::GetRate(const std::string& name,
                                           uint64_t window_micros) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = rates_[name];
  if (!slot) slot = std::make_unique<SlidingWindowRate>(window_micros);
  return *slot;
}

WindowSnapshot WindowRegistry::Snapshot(uint64_t now_micros) const {
  std::lock_guard<std::mutex> lock(mu_);
  WindowSnapshot snapshot;
  for (const auto& [name, h] : histograms_) {
    const SlidingWindowHistogram::Stats stats = h->Snapshot(now_micros);
    WindowSnapshot::HistogramData data;
    data.window_micros = h->window_micros();
    data.count = stats.count;
    data.sum = stats.sum;
    data.p50 = stats.p50;
    data.p95 = stats.p95;
    data.p99 = stats.p99;
    snapshot.histograms[name] = data;
  }
  for (const auto& [name, r] : rates_) {
    const SlidingWindowRate::Stats stats = r->Snapshot(now_micros);
    WindowSnapshot::RateData data;
    data.window_micros = r->window_micros();
    data.good = stats.good;
    data.total = stats.total;
    data.rate = stats.rate;
    snapshot.rates[name] = data;
  }
  return snapshot;
}

void WindowRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, h] : histograms_) h->Reset();
  for (auto& [name, r] : rates_) r->Reset();
}

}  // namespace obs
}  // namespace pasa
