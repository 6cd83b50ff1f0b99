#ifndef PASA_OBS_METRICS_H_
#define PASA_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/slo.h"
#include "obs/window.h"

namespace pasa {
namespace obs {

/// Process-wide switches for the observability layer.
struct ObsOptions {
  /// Runtime kill switch. When false, every Counter::Increment,
  /// Gauge::Set, Histogram::Observe and ScopedSpan degenerates to one
  /// relaxed atomic load plus a predictable branch, making the layer
  /// near-zero-cost on instrumented hot paths (verified by
  /// bench_overhead).
  bool enabled = true;
};

/// Installs `options` process-wide. Thread-safe; takes effect immediately
/// for metric writes (a ScopedSpan that was already open when the layer was
/// disabled finishes inert, and vice versa).
void Configure(const ObsOptions& options);

/// Current value of the runtime kill switch.
bool Enabled();

/// Monotonically increasing event count. All writes are relaxed atomics:
/// exact under concurrency, no ordering guarantees with other metrics.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    if (!Enabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double v) {
    if (!Enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram (Prometheus style): one atomic count per bucket
/// whose upper bound is given at construction, plus an implicit +Inf bucket,
/// a total count and a sum. Bucket bounds are immutable after registration;
/// GetHistogram keeps first-registration bounds and warns when a later call
/// passes different ones.
class Histogram {
 public:
  /// A sampled observation attached to one bucket, pointing back at the
  /// distributed trace that produced it (see obs/trace_context.h). Each
  /// bucket keeps its *largest* exemplar since the last Reset, so the
  /// highest non-empty bucket's exemplar is always the globally slowest
  /// traced observation — deterministic, which lets CI assert on it.
  struct Exemplar {
    double value = 0.0;
    uint64_t trace_id = 0;  ///< 0 = bucket has no exemplar
  };

  explicit Histogram(std::vector<double> upper_bounds);

  /// Records one observation (lock-free: a relaxed fetch_add per field).
  void Observe(double value);

  /// Records one observation and, when `exemplar_trace_id` is non-zero,
  /// offers it as the bucket's exemplar (max-value-wins, under a mutex the
  /// trace-id-free Observe never touches).
  void Observe(double value, uint64_t exemplar_trace_id);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& upper_bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; index bounds_.size() is +Inf.
  std::vector<uint64_t> bucket_counts() const;
  /// Per-bucket exemplars (same indexing as bucket_counts); empty if no
  /// traced observation was ever recorded.
  std::vector<Exemplar> exemplars() const;
  void Reset();

 private:
  std::vector<double> bounds_;  ///< sorted ascending
  std::vector<std::atomic<uint64_t>> buckets_;  ///< bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  mutable std::mutex exemplar_mu_;
  std::vector<Exemplar> exemplars_;  ///< lazily sized buckets_.size()
};

/// Aggregate of every completed span (or recorded phase) with one path,
/// e.g. "bulk_dp/temp_convolution". Min/max are maintained with CAS loops.
///
/// Self seconds are the part of a span's time not spent in spans that
/// closed inside it on the same thread; ScopedSpan books them, and
/// ExportFolded turns them into the /profile flamegraph. A phase recorded
/// through RecordSpan books none: its time is already the self time of the
/// span open around it.
class SpanStats {
 public:
  /// Folds `seconds` of work covering `count` units, `self_seconds` of it
  /// outside child spans, into the aggregate.
  void Record(double seconds, uint64_t count = 1, double self_seconds = 0.0);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double total_seconds() const {
    return total_seconds_.load(std::memory_order_relaxed);
  }
  double self_seconds() const {
    return self_seconds_.load(std::memory_order_relaxed);
  }
  /// NaN before the first Record.
  double min_seconds() const;
  double max_seconds() const;
  void Reset();

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<double> total_seconds_{0.0};
  std::atomic<double> self_seconds_{0.0};
  std::atomic<bool> any_{false};
  std::atomic<double> min_seconds_{0.0};
  std::atomic<double> max_seconds_{0.0};
};

/// Default bucket bounds for latency histograms, in seconds: a 1-2-5 series
/// from 1 microsecond to 10 seconds.
const std::vector<double>& DefaultLatencyBuckets();

/// Escapes a Prometheus label value per the text exposition format:
/// `\` → `\\`, `"` → `\"`, newline → `\n`.
std::string PromLabelValueEscape(const std::string& value);

/// Canonical registry key for a labeled series: `name{k="v",...}` with label
/// keys sanitized to the Prometheus label charset ([a-zA-Z_][a-zA-Z0-9_]*,
/// other bytes become '_'), emitted in sorted key order, and values escaped
/// with PromLabelValueEscape. With no labels, returns `name` unchanged.
///
/// This is how per-jurisdiction / per-worker / per-shard series are named:
///
///   registry.GetCounter(LabeledName("csp/requests_served",
///                                   {{"shard", "j3"}})).Increment();
///
/// The Prometheus exporter splits such keys at the first '{', groups every
/// series of the family under one # HELP/# TYPE header, and passes the label
/// block through verbatim; the JSON exporter keeps the whole key as the map
/// key. Distinct label sets are distinct metrics (distinct registrations).
std::string LabeledName(const std::string& name,
                        const std::map<std::string, std::string>& labels);

/// Immutable copy of every registered metric, taken under the registry lock;
/// what the exporters consume.
struct MetricsSnapshot {
  struct HistogramData {
    std::vector<double> upper_bounds;
    std::vector<uint64_t> bucket_counts;  ///< per-bucket; last is +Inf
    uint64_t count = 0;
    double sum = 0.0;
    /// Per-bucket exemplars (parallel to bucket_counts; trace id 0 = none).
    /// Empty vectors when the histogram never saw a traced observation.
    std::vector<double> exemplar_values;
    std::vector<uint64_t> exemplar_trace_ids;
  };
  struct SpanData {
    uint64_t count = 0;
    double total_seconds = 0.0;
    double min_seconds = 0.0;
    double max_seconds = 0.0;
    double self_seconds = 0.0;  ///< not printed by ExportJson/Prometheus
  };
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;
  std::map<std::string, SpanData> spans;
  /// Sliding-window telemetry and SLO states, filled by obs::FullSnapshot /
  /// WriteJsonFile when the window registry / SLO tracker are armed; empty
  /// (and omitted from exports) otherwise, so un-armed output is unchanged.
  WindowSnapshot windows;
  std::vector<SloState> slos;
};

/// Named registry of counters, gauges, histograms and span aggregates.
///
/// Get* calls are get-or-create under a mutex; the returned references stay
/// valid for the registry's lifetime (Reset zeroes values but never
/// deallocates), so hot paths should look a metric up once and reuse the
/// reference:
///
///   static obs::Counter& hits =
///       obs::MetricsRegistry::Global().GetCounter("lbs/answer_cache/hits");
///   hits.Increment();
///
/// Metric names use '/'-separated paths; exporters sanitize them per format.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry all built-in instrumentation writes to.
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  /// `upper_bounds` empty means DefaultLatencyBuckets(). When the name is
  /// already registered the first registration's bounds win; passing
  /// explicitly different bounds logs a warning and increments
  /// "obs/histogram_bounds_mismatches" instead of silently diverging.
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> upper_bounds = {});
  SpanStats& GetSpanStats(const std::string& path);

  /// Folds an already-measured duration into the span aggregate for `path`
  /// (the aggregated-phase alternative to ScopedSpan). No-op when disabled.
  void RecordSpan(const std::string& path, double seconds, uint64_t count = 1);

  /// Zeroes every registered metric. Registrations (names, bucket bounds)
  /// and previously returned references remain valid.
  void Reset();

  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<SpanStats>> spans_;
};

}  // namespace obs
}  // namespace pasa

#endif  // PASA_OBS_METRICS_H_
