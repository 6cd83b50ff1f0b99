#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/log.h"

namespace pasa {
namespace obs {
namespace {

std::atomic<bool> g_enabled{true};

// CAS-fold `v` into `slot` keeping the smaller (larger) value.
void AtomicMin(std::atomic<double>* slot, double v) {
  double cur = slot->load(std::memory_order_relaxed);
  while (v < cur &&
         !slot->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* slot, double v) {
  double cur = slot->load(std::memory_order_relaxed);
  while (v > cur &&
         !slot->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

void Configure(const ObsOptions& options) {
  g_enabled.store(options.enabled, std::memory_order_relaxed);
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1) {
  std::sort(bounds_.begin(), bounds_.end());
}

void Histogram::Observe(double value) {
  if (!Enabled()) return;
  // Prometheus `le` semantics: a value equal to an upper bound belongs in
  // that bound's bucket, so find the first bound >= value.
  const size_t idx = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

void Histogram::Observe(double value, uint64_t exemplar_trace_id) {
  if (!Enabled()) return;
  Observe(value);
  if (exemplar_trace_id == 0) return;
  const size_t idx = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  std::lock_guard<std::mutex> lock(exemplar_mu_);
  if (exemplars_.empty()) exemplars_.resize(buckets_.size());
  Exemplar& slot = exemplars_[idx];
  // Max-value-wins keeps the exemplar deterministic under replays: the
  // bucket always points at its slowest traced observation.
  if (slot.trace_id == 0 || value > slot.value) {
    slot.value = value;
    slot.trace_id = exemplar_trace_id;
  }
}

std::vector<Histogram::Exemplar> Histogram::exemplars() const {
  std::lock_guard<std::mutex> lock(exemplar_mu_);
  return exemplars_;
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> counts(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(exemplar_mu_);
  exemplars_.clear();
}

void SpanStats::Record(double seconds, uint64_t count, double self_seconds) {
  count_.fetch_add(count, std::memory_order_relaxed);
  total_seconds_.fetch_add(seconds, std::memory_order_relaxed);
  self_seconds_.fetch_add(self_seconds, std::memory_order_relaxed);
  if (!any_.exchange(true, std::memory_order_relaxed)) {
    // First recorder seeds min/max; racing recorders fold below, so the
    // worst case is a transiently widened min (0.0) never a lost update.
    min_seconds_.store(seconds, std::memory_order_relaxed);
    max_seconds_.store(seconds, std::memory_order_relaxed);
    return;
  }
  AtomicMin(&min_seconds_, seconds);
  AtomicMax(&max_seconds_, seconds);
}

double SpanStats::min_seconds() const {
  return any_.load(std::memory_order_relaxed)
             ? min_seconds_.load(std::memory_order_relaxed)
             : std::numeric_limits<double>::quiet_NaN();
}

double SpanStats::max_seconds() const {
  return any_.load(std::memory_order_relaxed)
             ? max_seconds_.load(std::memory_order_relaxed)
             : std::numeric_limits<double>::quiet_NaN();
}

void SpanStats::Reset() {
  count_.store(0, std::memory_order_relaxed);
  total_seconds_.store(0.0, std::memory_order_relaxed);
  self_seconds_.store(0.0, std::memory_order_relaxed);
  min_seconds_.store(0.0, std::memory_order_relaxed);
  max_seconds_.store(0.0, std::memory_order_relaxed);
  any_.store(false, std::memory_order_relaxed);
}

const std::vector<double>& DefaultLatencyBuckets() {
  static const std::vector<double> kBuckets = {
      1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3,
      5e-3, 1e-2, 2e-2, 5e-2, 0.1,  0.2,  0.5,  1.0,  2.0,  5.0,  10.0};
  return kBuckets;
}

std::string PromLabelValueEscape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string LabeledName(const std::string& name,
                        const std::map<std::string, std::string>& labels) {
  if (labels.empty()) return name;
  std::string out = name;
  out += '{';
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    // Prometheus label names: [a-zA-Z_][a-zA-Z0-9_]*.
    for (size_t i = 0; i < key.size(); ++i) {
      const char c = key[i];
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      c == '_' || (i > 0 && c >= '0' && c <= '9');
      out += ok ? c : '_';
    }
    if (key.empty()) out += '_';
    out += "=\"";
    out += PromLabelValueEscape(value);
    out += '"';
  }
  out += '}';
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> upper_bounds) {
  bool mismatched = false;
  Histogram* histogram = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = histograms_[name];
    if (!slot) {
      slot = std::make_unique<Histogram>(upper_bounds.empty()
                                             ? DefaultLatencyBuckets()
                                             : std::move(upper_bounds));
    } else if (!upper_bounds.empty()) {
      std::sort(upper_bounds.begin(), upper_bounds.end());
      mismatched = upper_bounds != slot->upper_bounds();
    }
    histogram = slot.get();
  }
  // Emitting outside the lock: LogWarn/GetCounter must not run under the
  // non-recursive registry mutex.
  if (mismatched) {
    LogWarn("obs",
            "GetHistogram(\"%s\") called with bounds that differ from the "
            "registered ones; keeping first-registration bounds",
            name.c_str());
    GetCounter("obs/histogram_bounds_mismatches").Increment();
  }
  return *histogram;
}

SpanStats& MetricsRegistry::GetSpanStats(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = spans_[path];
  if (!slot) slot = std::make_unique<SpanStats>();
  return *slot;
}

void MetricsRegistry::RecordSpan(const std::string& path, double seconds,
                                 uint64_t count) {
  if (!Enabled()) return;
  GetSpanStats(path).Record(seconds, count);
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
  for (auto& [name, s] : spans_) s->Reset();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  for (const auto& [name, c] : counters_) snapshot.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snapshot.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramData data;
    data.upper_bounds = h->upper_bounds();
    data.bucket_counts = h->bucket_counts();
    data.count = h->count();
    data.sum = h->sum();
    const std::vector<Histogram::Exemplar> exemplars = h->exemplars();
    if (!exemplars.empty()) {
      data.exemplar_values.reserve(exemplars.size());
      data.exemplar_trace_ids.reserve(exemplars.size());
      for (const Histogram::Exemplar& e : exemplars) {
        data.exemplar_values.push_back(e.value);
        data.exemplar_trace_ids.push_back(e.trace_id);
      }
    }
    snapshot.histograms[name] = std::move(data);
  }
  for (const auto& [name, s] : spans_) {
    MetricsSnapshot::SpanData data;
    data.count = s->count();
    data.total_seconds = s->total_seconds();
    data.self_seconds = s->self_seconds();
    const double mn = s->min_seconds();
    const double mx = s->max_seconds();
    data.min_seconds = std::isnan(mn) ? 0.0 : mn;
    data.max_seconds = std::isnan(mx) ? 0.0 : mx;
    snapshot.spans[name] = data;
  }
  return snapshot;
}

}  // namespace obs
}  // namespace pasa
