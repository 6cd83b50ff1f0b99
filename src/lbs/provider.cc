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

void PoiAnswerCache::Put(const AnonymizedRequest& ar,
                         const std::vector<PointOfInterest>& pois) {
  const uint32_t offset = ItemNumber(ids_.size());
  for (const PointOfInterest& poi : pois) ids_.push_back(InternPoi(poi));
  const uint32_t end = ItemNumber(ids_.size());
  index_.Put(ar, Slice{offset, end - offset});
}

std::vector<PointOfInterest> PoiAnswerCache::Materialize(
    const Slice& slice) const {
  std::vector<PointOfInterest> pois;
  pois.reserve(slice.count);
  for (uint32_t i = slice.offset; i < slice.offset + slice.count; ++i) {
    const PoiRecord& r = records_[ids_[i]];
    pois.push_back(PointOfInterest{r.id, Point{r.x, r.y},
                                   std::string(categories_.at(r.category))});
  }
  return pois;
}

size_t PoiAnswerCache::Flush() {
  categories_.Clear();
  answer_cache_internal::Release(records_);
  record_index_.Clear();
  answer_cache_internal::Release(ids_);
  return index_.Flush();
}

uint64_t PoiAnswerCache::ApproxBytes() const {
  return index_.ApproxBytes() + categories_.ApproxBytes() +
         obs::VectorApproxBytes(records_) + record_index_.ApproxBytes() +
         obs::VectorApproxBytes(ids_);
}

uint32_t PoiAnswerCache::InternCategory(const std::string& category) {
  const uint64_t hash = answer_cache_internal::HashOfBytes(category);
  const uint32_t found = categories_.Find(
      hash, [&](std::string_view stored) { return stored == category; });
  if (found != kNoItem) return found;
  return categories_.Add(hash, [&](std::vector<char>& out) {
    out.insert(out.end(), category.begin(), category.end());
  });
}

uint64_t PoiAnswerCache::RecordHash(const PoiRecord& r) {
  return Mix64(
      static_cast<uint64_t>(r.id) * 0x9E3779B97F4A7C15ULL ^
      static_cast<uint64_t>(r.x) * 0xC2B2AE3D27D4EB4FULL ^
      static_cast<uint64_t>(r.y) * 0x165667B19E3779F9ULL ^ r.category);
}

uint32_t PoiAnswerCache::InternPoi(const PointOfInterest& poi) {
  const PoiRecord record{poi.id, poi.location.x, poi.location.y,
                         InternCategory(poi.category)};
  const uint64_t hash = RecordHash(record);
  const uint32_t found = record_index_.Find(hash, [&](uint32_t i) {
    const PoiRecord& r = records_[i];
    return r.id == record.id && r.x == record.x && r.y == record.y &&
           r.category == record.category;
  });
  if (found != kNoItem) return found;
  const uint32_t id = ItemNumber(records_.size());
  records_.push_back(record);
  record_index_.Insert(hash, id,
                       [&](uint32_t i) { return RecordHash(records_[i]); });
  return id;
}

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
  if (const PoiAnswerCache::Slice* cached = cache_.Lookup(ar)) {
    hits.Increment();
    RecordCacheHitWindow(true);
    if (p != nullptr) p->cache_hit = true;
    return LbsAnswer{cache_.Materialize(*cached), /*degraded=*/false};
  }
  RecordCacheHitWindow(false);
  Result<std::vector<PointOfInterest>> fetched = [&] {
    // Records as lbs/serve/cache_miss.
    obs::ScopedSpan miss_span("cache_miss");
    return client_.Fetch(ar);
  }();
  if (fetched.ok()) {
    misses.Increment();
    cache_.Put(ar, *fetched);
    return LbsAnswer{std::move(*fetched), /*degraded=*/false};
  }
  if (const PoiAnswerCache::Slice* stale = cache_.FindStaleFallback(ar)) {
    misses.Increment();
    stale_serves.Increment();
    obs::TraceInstant("lbs/stale_serve");
    obs::LogDebug("lbs", "provider unreachable (%s); serving stale answer",
                  fetched.status().ToString().c_str());
    if (p != nullptr) p->stale_fallback = true;
    return LbsAnswer{cache_.Materialize(*stale), /*degraded=*/true};
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
