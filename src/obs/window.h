#ifndef PASA_OBS_WINDOW_H_
#define PASA_OBS_WINDOW_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pasa {
namespace obs {

/// Steady-clock microseconds of `t`: the one timeline every sliding window,
/// SLO record and burn-rate evaluation uses. A layer that already read the
/// steady clock for a timer passes that reading instead of reading twice.
inline uint64_t SteadyMicros(std::chrono::steady_clock::time_point t) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          t.time_since_epoch())
          .count());
}

/// The current steady-clock time in microseconds. The windows and SLOs take
/// their time as an argument, so tests drive them with explicit times.
inline uint64_t NowMicros() {
  return SteadyMicros(std::chrono::steady_clock::now());
}

/// Default span of a sliding window: the last 10 seconds.
inline constexpr uint64_t kDefaultWindowMicros = 10'000'000;

/// How many time slices a window is divided into. Expiry granularity is one
/// slice, so a window covers between (kWindowSlices - 1) and kWindowSlices
/// slices' worth of events.
inline constexpr size_t kWindowSlices = 16;

/// A fixed-bucket histogram over a sliding time window: observations are
/// binned into rotating time slices, and a snapshot merges only the slices
/// that still fall inside the window, so p50/p95/p99 reflect recent traffic
/// instead of the whole process lifetime (what the cumulative
/// obs::Histogram reports).
///
/// Thread-safe behind a mutex; the serving path only reaches it when the
/// WindowRegistry is enabled, so the disarmed cost is the caller's one
/// relaxed load of that switch.
class SlidingWindowHistogram {
 public:
  struct Stats {
    uint64_t count = 0;
    double sum = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };

  /// `upper_bounds` empty means the registry default (latency buckets).
  SlidingWindowHistogram(std::vector<double> upper_bounds,
                         uint64_t window_micros);

  void Observe(double value, uint64_t now_micros);

  /// Merged stats over the slices still inside the window at `now_micros`.
  /// Quantiles interpolate linearly inside the winning bucket; the +Inf
  /// bucket reports the largest finite bound.
  Stats Snapshot(uint64_t now_micros) const;

  uint64_t window_micros() const { return window_micros_; }
  const std::vector<double>& upper_bounds() const { return bounds_; }

  /// Discards every recorded slice.
  void Reset();

 private:
  struct Slice {
    uint64_t index = UINT64_MAX;  ///< slice_micros-sized epoch; UINT64_MAX=empty
    std::vector<uint64_t> buckets;
    uint64_t count = 0;
    double sum = 0.0;
  };

  mutable std::mutex mu_;
  std::vector<double> bounds_;  ///< sorted ascending
  uint64_t window_micros_;
  uint64_t slice_micros_;
  std::vector<Slice> slices_;
};

/// A good/total event rate over a sliding time window (cache hit rate,
/// availability, degradation rate). Same slice machinery and locking as
/// SlidingWindowHistogram.
class SlidingWindowRate {
 public:
  struct Stats {
    uint64_t good = 0;
    uint64_t total = 0;
    /// good / total; 0 when the window saw no events.
    double rate = 0.0;
  };

  explicit SlidingWindowRate(uint64_t window_micros);

  void Record(bool good, uint64_t now_micros);
  Stats Snapshot(uint64_t now_micros) const;

  uint64_t window_micros() const { return window_micros_; }
  void Reset();

 private:
  struct Slice {
    uint64_t index = UINT64_MAX;
    uint64_t good = 0;
    uint64_t total = 0;
  };

  mutable std::mutex mu_;
  uint64_t window_micros_;
  uint64_t slice_micros_;
  std::vector<Slice> slices_;
};

/// Immutable copy of every registered window, for the exporters.
struct WindowSnapshot {
  struct HistogramData {
    uint64_t window_micros = 0;
    uint64_t count = 0;
    double sum = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };
  struct RateData {
    uint64_t window_micros = 0;
    uint64_t good = 0;
    uint64_t total = 0;
    double rate = 0.0;
  };
  std::map<std::string, HistogramData> histograms;
  std::map<std::string, RateData> rates;
};

/// Named registry of sliding windows, the windowed sibling of
/// MetricsRegistry. Disabled by default: serving-path call sites guard on
/// enabled() (one relaxed load) so un-armed runs never touch a window
/// mutex. Get* is get-or-create; returned references stay valid for the
/// registry's lifetime, so hot paths cache them like metrics:
///
///   if (obs::WindowRegistry::Global().enabled()) {
///     static obs::SlidingWindowRate& hits = obs::WindowRegistry::Global()
///         .GetRate("lbs/window/cache_hit_rate");
///     hits.Record(hit, obs::NowMicros());
///   }
class WindowRegistry {
 public:
  WindowRegistry() = default;
  WindowRegistry(const WindowRegistry&) = delete;
  WindowRegistry& operator=(const WindowRegistry&) = delete;

  /// The process-wide registry (armed by `pasa_cli serve` / `--audit-out`).
  static WindowRegistry& Global();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// `upper_bounds` empty means DefaultLatencyBuckets(); like
  /// MetricsRegistry::GetHistogram, both arguments are ignored for an
  /// already-registered name.
  SlidingWindowHistogram& GetHistogram(
      const std::string& name, std::vector<double> upper_bounds = {},
      uint64_t window_micros = kDefaultWindowMicros);
  SlidingWindowRate& GetRate(const std::string& name,
                             uint64_t window_micros = kDefaultWindowMicros);

  WindowSnapshot Snapshot(uint64_t now_micros) const;

  /// Discards all recorded events; registrations and references survive.
  void Reset();

 private:
  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  std::map<std::string, std::unique_ptr<SlidingWindowHistogram>> histograms_;
  std::map<std::string, std::unique_ptr<SlidingWindowRate>> rates_;
};

}  // namespace obs
}  // namespace pasa

#endif  // PASA_OBS_WINDOW_H_
