#include "lbs/provider.h"

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "obs/trace_sink.h"
#include "obs/window.h"

namespace pasa {
namespace {

/// Feeds the windowed cache-hit rate (armed runs only).
void RecordCacheHitWindow(bool hit) {
  if (!obs::WindowRegistry::Global().enabled()) return;
  static obs::SlidingWindowRate& rate =
      obs::WindowRegistry::Global().GetRate("lbs/window/cache_hit_rate");
  rate.Record(hit, obs::NowMicros());
}

}  // namespace

std::vector<PointOfInterest> LbsProvider::Answer(
    const AnonymizedRequest& ar) const {
  requests_seen_.fetch_add(1, std::memory_order_relaxed);
  std::string category;
  for (const NameValue& nv : ar.params) {
    if (nv.name == "poi") {
      category = nv.value;
      break;
    }
  }
  return pois_.NearestToCloak(ar.cloak, category, answers_per_request_);
}

Result<LbsAnswer> CachingLbsFrontend::Serve(const AnonymizedRequest& ar) {
  static obs::Histogram& latency =
      obs::MetricsRegistry::Global().GetHistogram("lbs/serve_seconds");
  static obs::Counter& hits =
      obs::MetricsRegistry::Global().GetCounter("lbs/answer_cache/hits");
  static obs::Counter& misses =
      obs::MetricsRegistry::Global().GetCounter("lbs/answer_cache/misses");
  static obs::Counter& stale_serves = obs::MetricsRegistry::Global()
      .GetCounter("lbs/answer_cache/stale_serves");
  static obs::Counter& unserved =
      obs::MetricsRegistry::Global().GetCounter("lbs/unserved_requests");
  // The LBS hop's span: in a traced request it parents under the caller's
  // span (csp/handle_request), so the hop shows up in tail traces and the
  // merged Perfetto timeline.
  obs::ScopedSpan serve_span("lbs/serve", obs::ScopedSpan::kRoot);
  obs::ScopedHistogramTimer timer(latency);
  obs::ProvenanceRecord* p = obs::CurrentProvenance();
  if (const std::vector<PointOfInterest>* cached = cache_.Lookup(ar)) {
    hits.Increment();
    RecordCacheHitWindow(true);
    if (p != nullptr) p->cache_hit = true;
    return LbsAnswer{*cached, /*degraded=*/false};
  }
  RecordCacheHitWindow(false);
  Result<std::vector<PointOfInterest>> fetched = [&] {
    // Records as lbs/serve/cache_miss.
    obs::ScopedSpan miss_span("cache_miss");
    return client_.Fetch(ar);
  }();
  if (fetched.ok()) {
    misses.Increment();
    return LbsAnswer{cache_.Put(ar, std::move(*fetched)), /*degraded=*/false};
  }
  if (const std::vector<PointOfInterest>* stale =
          cache_.FindStaleFallback(ar)) {
    misses.Increment();
    stale_serves.Increment();
    obs::TraceInstant("lbs/stale_serve");
    obs::LogDebug("lbs", "provider unreachable (%s); serving stale answer",
                  fetched.status().ToString().c_str());
    if (p != nullptr) p->stale_fallback = true;
    return LbsAnswer{*stale, /*degraded=*/true};
  }
  misses.Increment();
  unserved.Increment();
  return fetched.status();
}

size_t CachingLbsFrontend::FlushAndBill() {
  const size_t billable = cache_.Flush();
  obs::MetricsRegistry::Global()
      .GetCounter("lbs/answer_cache/billed_requests")
      .Increment(billable);
  obs::MetricsRegistry::Global().GetCounter("lbs/answer_cache/flushes")
      .Increment();
  return billable;
}

}  // namespace pasa
