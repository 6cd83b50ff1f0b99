#ifndef PASA_LBS_PROVIDER_H_
#define PASA_LBS_PROVIDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lbs/answer_cache.h"
#include "lbs/backend.h"
#include "lbs/poi.h"
#include "lbs/resilient_client.h"
#include "model/anonymized_request.h"

namespace pasa {

/// The (untrusted) third-party LBS of the model: answers anonymized
/// requests by nearest-neighbor search over its POI index. It sees only
/// cloaks, never identities or precise locations.
class LbsProvider : public LbsBackend {
 public:
  /// `answers_per_request`: how many POIs each answer carries (the client
  /// filters locally for the one nearest its true position).
  LbsProvider(PoiDatabase pois, size_t answers_per_request)
      : pois_(std::move(pois)), answers_per_request_(answers_per_request) {}

  LbsProvider(LbsProvider&& other) noexcept
      : pois_(std::move(other.pois_)),
        answers_per_request_(other.answers_per_request_),
        requests_seen_(other.requests_seen_.load(std::memory_order_relaxed)) {
  }

  /// Deep copy (the atomic counter needs an explicit load). Only meaningful
  /// while no other thread is evaluating `other` — the single-threaded
  /// explorer clones quiescent servers.
  LbsProvider(const LbsProvider& other)
      : pois_(other.pois_),
        answers_per_request_(other.answers_per_request_),
        requests_seen_(other.requests_seen_.load(std::memory_order_relaxed)) {
  }

  /// Evaluates the request: the nearest POIs of the requested category
  /// ("poi" parameter) to the cloak region.
  std::vector<PointOfInterest> Answer(const AnonymizedRequest& ar) const;

  /// LbsBackend: the in-process provider itself never fails; failures are
  /// simulated upstream by the resilience layer's injection points.
  Result<std::vector<PointOfInterest>> Fetch(
      const AnonymizedRequest& ar) override {
    return Answer(ar);
  }

  /// Number of requests this provider actually evaluated — the count an
  /// attacker at the LBS could log for frequency attacks.
  size_t requests_seen() const {
    return requests_seen_.load(std::memory_order_relaxed);
  }

  /// Approximate heap bytes of the POI index (memory accounting, obs/mem.h).
  uint64_t ApproxBytes() const { return pois_.ApproxBytes(); }

 private:
  PoiDatabase pois_;
  size_t answers_per_request_;
  /// Atomic: Answer is const and may run concurrently (thread-mode runs).
  mutable std::atomic<size_t> requests_seen_{0};
};

/// The answer cache of the serving path: AnswerCache keyed as always, but
/// each answer is stored as an (offset, count) run in one arena of POI
/// record ids, and each distinct POI (id, location, category) is stored
/// once per cache period as a fixed-width record with an interned category
/// id. Flush drops all of it.
class PoiAnswerCache {
 public:
  /// An answer: `count` record ids starting at `offset` in the id arena.
  struct Slice {
    uint32_t offset = 0;
    uint32_t count = 0;
  };
  using Stats = AnswerCache<Slice>::Stats;

  const Slice* Lookup(const AnonymizedRequest& ar) {
    return index_.Lookup(ar);
  }
  const Slice* FindStaleFallback(const AnonymizedRequest& ar) {
    return index_.FindStaleFallback(ar);
  }
  /// Stores a freshly fetched (and therefore billable) answer.
  void Put(const AnonymizedRequest& ar,
           const std::vector<PointOfInterest>& pois);
  /// The answer `slice` names, as the provider returned it.
  std::vector<PointOfInterest> Materialize(const Slice& slice) const;

  /// Drops every entry and POI record; returns the billable request count
  /// since the previous flush (AnswerCache::Flush).
  size_t Flush();

  size_t size() const { return index_.size(); }
  const Stats& stats() const { return index_.stats(); }
  std::vector<std::string> SortedKeys() const { return index_.SortedKeys(); }

  /// Heap bytes held: the keyed table and params arena, the POI record
  /// table with its index and category arena, and the id arena.
  uint64_t ApproxBytes() const;

 private:
  struct PoiRecord {
    int64_t id = 0;
    Coord x = 0;
    Coord y = 0;
    uint32_t category = 0;
  };

  uint32_t InternCategory(const std::string& category);
  uint32_t InternPoi(const PointOfInterest& poi);
  static uint64_t RecordHash(const PoiRecord& r);

  AnswerCache<Slice> index_;
  answer_cache_internal::ByteInterner categories_;
  std::vector<PoiRecord> records_;
  FlatIndex record_index_;
  std::vector<uint32_t> ids_;
};

/// The trusted CSP front half of the Section VII architecture: forwards
/// anonymized requests to the LBS backend through the answer cache and the
/// resilience layer, so duplicates never leave the CSP and a flaky provider
/// degrades answers instead of dropping requests.
class CachingLbsFrontend {
 public:
  explicit CachingLbsFrontend(LbsProvider provider,
                              const ResilienceOptions& resilience = {})
      : provider_(std::make_unique<LbsProvider>(std::move(provider))),
        client_(provider_.get(), resilience) {}

  /// Deep copy for state-space exploration: the cloned client is rebound to
  /// the cloned provider, so the copy is a fully independent serving stack
  /// that replays identically from the copied resilience/cache state.
  CachingLbsFrontend(const CachingLbsFrontend& other)
      : provider_(std::make_unique<LbsProvider>(*other.provider_)),
        client_(other.client_, provider_.get()),
        cache_(other.cache_) {}

  /// Serves `ar`, consulting the cache first. On a miss the fetch goes
  /// through the resilient client; if the provider stays unreachable the
  /// answer degrades to the best overlapping cached answer (flagged
  /// `degraded`), and only when no fallback exists does the request fail
  /// with kUnavailable / kDeadlineExceeded.
  Result<LbsAnswer> Serve(const AnonymizedRequest& ar);

  /// Flushes the cache and reports the billable request count to the LBS
  /// (also exported as the lbs/answer_cache/billed_requests counter).
  size_t FlushAndBill();

  const LbsProvider& provider() const { return *provider_; }
  const ResilientLbsClient& client() const { return client_; }
  /// The answer cache itself (read-only), for canonical state digests.
  const PoiAnswerCache& cache() const { return cache_; }
  const PoiAnswerCache::Stats& cache_stats() const { return cache_.stats(); }

 private:
  /// unique_ptr keeps the backend address stable for the client when the
  /// frontend itself is moved.
  std::unique_ptr<LbsProvider> provider_;
  ResilientLbsClient client_;
  PoiAnswerCache cache_;
};

}  // namespace pasa

#endif  // PASA_LBS_PROVIDER_H_
