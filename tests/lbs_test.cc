// Tests for the LBS provider substrate: POI nearest-to-cloak queries, the
// Section VII answer cache (frequency-attack mitigation + billing), and the
// resilience layer (retries, circuit breaker, serve-stale degradation).

#include <gtest/gtest.h>

#include <cstdio>
#include <unordered_map>

#include "common/rng.h"
#include "fault/injector.h"
#include "lbs/answer_cache.h"
#include "lbs/poi.h"
#include "lbs/provider.h"
#include "lbs/resilient_client.h"

namespace pasa {
namespace {

std::vector<PointOfInterest> RandomPois(Rng* rng, size_t n, Coord side) {
  const std::vector<std::string> categories = {"rest", "gas", "hospital"};
  std::vector<PointOfInterest> pois;
  pois.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pois.push_back(PointOfInterest{
        static_cast<int64_t>(i),
        Point{static_cast<Coord>(rng->NextBounded(side)),
              static_cast<Coord>(rng->NextBounded(side))},
        categories[rng->NextBounded(categories.size())]});
  }
  return pois;
}

TEST(PoiDatabaseTest, DistanceToRect) {
  const Rect r{2, 2, 6, 6};  // interior cells x,y in [2,5]
  EXPECT_EQ(PoiDatabase::SquaredDistanceToRect({3, 4}, r), 0);
  EXPECT_EQ(PoiDatabase::SquaredDistanceToRect({0, 4}, r), 4);
  EXPECT_EQ(PoiDatabase::SquaredDistanceToRect({8, 8}, r), 9 + 9);
  EXPECT_EQ(PoiDatabase::SquaredDistanceToRect({5, 5}, r), 0);  // last cell
  EXPECT_EQ(PoiDatabase::SquaredDistanceToRect({6, 2}, r), 1);  // x2 is out
}

TEST(PoiDatabaseTest, NearestToCloakMatchesBruteForce) {
  Rng rng(1);
  const std::vector<PointOfInterest> pois = RandomPois(&rng, 500, 1000);
  const PoiDatabase db(pois);
  for (int trial = 0; trial < 20; ++trial) {
    const Coord x = static_cast<Coord>(rng.NextBounded(900));
    const Coord y = static_cast<Coord>(rng.NextBounded(900));
    const Rect cloak{x, y, x + 1 + static_cast<Coord>(rng.NextBounded(80)),
                     y + 1 + static_cast<Coord>(rng.NextBounded(80))};
    const std::string category = trial % 2 == 0 ? "rest" : "gas";
    const size_t count = 1 + rng.NextBounded(8);

    const auto got = db.NearestToCloak(cloak, category, count);
    // Brute-force reference.
    std::vector<std::pair<int64_t, int64_t>> reference;  // (dist2, id)
    for (const PointOfInterest& poi : pois) {
      if (poi.category != category) continue;
      reference.emplace_back(
          PoiDatabase::SquaredDistanceToRect(poi.location, cloak), poi.id);
    }
    std::sort(reference.begin(), reference.end());
    ASSERT_EQ(got.size(), std::min(count, reference.size()));
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(PoiDatabase::SquaredDistanceToRect(got[i].location, cloak),
                reference[i].first)
          << "rank " << i;
    }
  }
}

TEST(PoiDatabaseTest, ScarceCategoryReturnsAllOfIt) {
  std::vector<PointOfInterest> pois = {
      {1, {10, 10}, "rest"}, {2, {20, 20}, "gas"}, {3, {30, 30}, "gas"}};
  const PoiDatabase db(std::move(pois));
  EXPECT_EQ(db.NearestToCloak(Rect{0, 0, 5, 5}, "rest", 10).size(), 1u);
  EXPECT_EQ(db.NearestToCloak(Rect{0, 0, 5, 5}, "spa", 10).size(), 0u);
  EXPECT_TRUE(db.NearestToCloak(Rect{0, 0, 5, 5}, "gas", 0).empty());
}

TEST(PoiDatabaseTest, EmptyDatabase) {
  const PoiDatabase db({});
  EXPECT_TRUE(db.NearestToCloak(Rect{0, 0, 4, 4}, "rest", 3).empty());
}

TEST(AnswerCacheTest, DuplicateAnonymizedRequestsNeverReachTheLbs) {
  AnswerCache<int> cache;
  const AnonymizedRequest a{1, {0, 0, 4, 4}, {{"poi", "rest"}}};
  const AnonymizedRequest duplicate{2, {0, 0, 4, 4}, {{"poi", "rest"}}};
  const AnonymizedRequest different{3, {0, 0, 4, 4}, {{"poi", "gas"}}};

  int fetches = 0;
  const auto fetch = [&] { return ++fetches; };
  EXPECT_EQ(cache.GetOrFetch(a, fetch), 1);
  // Same cloak+params, different rid: must hit.
  EXPECT_EQ(cache.GetOrFetch(duplicate, fetch), 1);
  EXPECT_EQ(cache.GetOrFetch(different, fetch), 2);
  EXPECT_EQ(fetches, 2);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(AnswerCacheTest, FlushReportsBillableCountAndClears) {
  AnswerCache<int> cache;
  const AnonymizedRequest ar{1, {0, 0, 4, 4}, {}};
  int fetches = 0;
  const auto fetch = [&] { return ++fetches; };
  cache.GetOrFetch(ar, fetch);
  cache.GetOrFetch(ar, fetch);
  cache.GetOrFetch(ar, fetch);
  EXPECT_EQ(cache.Flush(), 3u);  // billing sees all three requests
  EXPECT_EQ(cache.size(), 0u);
  cache.GetOrFetch(ar, fetch);   // re-fetched after flush
  EXPECT_EQ(fetches, 2);
  EXPECT_EQ(cache.Flush(), 1u);
}

TEST(LbsProviderTest, FrontendShieldsFrequencies) {
  Rng rng(2);
  PoiDatabase pois(RandomPois(&rng, 200, 500));
  CachingLbsFrontend frontend(LbsProvider(std::move(pois), 5));

  const AnonymizedRequest ar{10, {100, 100, 160, 160}, {{"poi", "rest"}}};
  // 50 duplicate requests from the same cloak (the frequency-attack
  // scenario of Section VII): the LBS must see exactly one.
  for (int i = 0; i < 50; ++i) {
    const Result<LbsAnswer> answer = frontend.Serve(
        AnonymizedRequest{10 + i, ar.cloak, ar.params});
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_LE(answer->pois.size(), 5u);
    EXPECT_FALSE(answer->degraded);
  }
  EXPECT_EQ(frontend.provider().requests_seen(), 1u);
  EXPECT_EQ(frontend.cache_stats().hits, 49u);
  EXPECT_EQ(frontend.FlushAndBill(), 50u);  // billing is still accurate
}

TEST(AnswerCacheTest, StaleFallbackPrefersLargestOverlapSameParams) {
  AnswerCache<int> cache;
  cache.Put({1, {0, 0, 8, 8}, {{"poi", "rest"}}}, 1);
  cache.Put({2, {4, 4, 20, 20}, {{"poi", "rest"}}}, 2);
  cache.Put({3, {0, 0, 64, 64}, {{"poi", "gas"}}}, 3);

  // {4,4,12,12} overlaps entry 1 by 4x4 and entry 2 by 8x8: entry 2 wins.
  const AnonymizedRequest ar{9, {4, 4, 12, 12}, {{"poi", "rest"}}};
  const int* stale = cache.FindStaleFallback(ar);
  ASSERT_NE(stale, nullptr);
  EXPECT_EQ(*stale, 2);
  EXPECT_EQ(cache.stats().stale_serves, 1u);

  // Same cloak, different params: the gas entry overlaps but params differ.
  const int* wrong_params =
      cache.FindStaleFallback({9, {4, 4, 12, 12}, {{"poi", "spa"}}});
  EXPECT_EQ(wrong_params, nullptr);

  // Disjoint cloak: nothing to serve.
  const int* disjoint =
      cache.FindStaleFallback({9, {100, 100, 110, 110}, {{"poi", "rest"}}});
  EXPECT_EQ(disjoint, nullptr);
}

TEST(AnswerCacheTest, ParamVectorsThatJoinToTheSameStringAreDistinct) {
  // Each pair joins to one '|'-separated "name=value" string.
  const std::vector<std::pair<ParamVector, ParamVector>> pairs = {
      {{{"poi", "rest|q=1"}}, {{"poi", "rest"}, {"q", "1"}}},
      {{{"a=b", "c"}}, {{"a", "b=c"}}},
      {{{"poi", "rest|"}}, {{"poi", "rest"}, {"", ""}}},
  };
  for (const auto& [first, second] : pairs) {
    AnswerCache<int> cache;
    const Rect cloak{0, 0, 4, 4};
    cache.Put({1, cloak, first}, 1);
    EXPECT_EQ(cache.Lookup({2, cloak, second}), nullptr);
    EXPECT_EQ(cache.FindStaleFallback({3, cloak, second}), nullptr);
    EXPECT_EQ(cache.stats().stale_serves, 0u);
    EXPECT_EQ(cache.size(), 1u);

    cache.Put({4, cloak, second}, 2);
    EXPECT_EQ(cache.size(), 2u);
    ASSERT_NE(cache.Lookup({5, cloak, first}), nullptr);
    EXPECT_EQ(*cache.Lookup({5, cloak, first}), 1);
    EXPECT_EQ(*cache.Lookup({6, cloak, second}), 2);
    EXPECT_EQ(*cache.FindStaleFallback({7, cloak, first}), 1);
    EXPECT_EQ(*cache.FindStaleFallback({8, cloak, second}), 2);
    const std::vector<std::string> keys = cache.SortedKeys();
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_NE(keys[0], keys[1]);
  }
}

TEST(AnswerCacheTest, StaleFallbackVisitsOnlyItsOwnParams) {
  // 10^5 entries: 1000 parameter vectors x 100 cloaks along a diagonal.
  AnswerCache<int> cache;
  constexpr int kParams = 1000;
  constexpr int kCloaks = 100;
  for (int p = 0; p < kParams; ++p) {
    const ParamVector params = {{"poi", std::to_string(p)}};
    for (int c = 0; c < kCloaks; ++c) {
      cache.Put({0, {8 * c, 8 * c, 8 * c + 16, 8 * c + 16}, params},
                p * kCloaks + c);
    }
  }
  ASSERT_EQ(cache.size(), static_cast<size_t>(kParams * kCloaks));

  // {82,82,94,94} overlaps cloak 9 ({72..88}) by 6x6, cloak 10 ({80..96})
  // by 12x12 and cloak 11 ({88..104}) by 6x6: cloak 10 wins.
  const int* stale =
      cache.FindStaleFallback({1, {82, 82, 94, 94}, {{"poi", "417"}}});
  ASSERT_NE(stale, nullptr);
  EXPECT_EQ(*stale, 417 * kCloaks + 10);
  EXPECT_EQ(cache.stats().fallback_visits, static_cast<size_t>(kCloaks));

  // Parameters never cached: nothing is visited.
  EXPECT_EQ(cache.FindStaleFallback({2, {82, 82, 94, 94}, {{"poi", "x"}}}),
            nullptr);
  EXPECT_EQ(cache.stats().fallback_visits, static_cast<size_t>(kCloaks));
}

TEST(AnswerCacheTest, EmptyCacheHoldsNoHeapAndFlushReleasesAll) {
  AnswerCache<int> cache;
  EXPECT_EQ(cache.ApproxBytes(), 0u);
  cache.Put({1, {0, 0, 4, 4}, {{"poi", "rest"}}}, 1);
  EXPECT_GT(cache.ApproxBytes(), 0u);
  cache.Flush();
  EXPECT_EQ(cache.ApproxBytes(), 0u);

  PoiAnswerCache pois;
  EXPECT_EQ(pois.ApproxBytes(), 0u);
  pois.Put({1, {0, 0, 4, 4}, {{"poi", "rest"}}}, {{1, {1, 1}, "rest"}});
  EXPECT_GT(pois.ApproxBytes(), 0u);
  EXPECT_EQ(pois.Flush(), 1u);
  EXPECT_EQ(pois.ApproxBytes(), 0u);
  EXPECT_EQ(pois.size(), 0u);
}

TEST(PoiAnswerCacheTest, ColdEntriesAccountAtMost200BytesEach) {
  // cold_lbs-style traffic: every request carries a fresh 16-hex token, so
  // every request is its own entry; 10 POIs each from a 512-POI set.
  Rng rng(5);
  const std::vector<PointOfInterest> pool = RandomPois(&rng, 512, 1 << 16);
  PoiAnswerCache cache;
  constexpr size_t kEntries = 100'000;
  std::vector<PointOfInterest> answer(10);
  for (size_t i = 0; i < kEntries; ++i) {
    const Coord x = static_cast<Coord>(rng.NextBounded(256)) * 256;
    const Coord y = static_cast<Coord>(rng.NextBounded(256)) * 256;
    char token[17];
    std::snprintf(token, sizeof(token), "%016llx",
                  static_cast<unsigned long long>(rng.Next()));
    for (PointOfInterest& poi : answer) {
      poi = pool[rng.NextBounded(pool.size())];
    }
    cache.Put({static_cast<RequestId>(i), {x, y, x + 256, y + 256},
               {{"poi", "rest"}, {"q", token}}},
              answer);
  }
  ASSERT_EQ(cache.size(), kEntries);
  const double per_entry = static_cast<double>(cache.ApproxBytes()) /
                           static_cast<double>(kEntries);
  EXPECT_LE(per_entry, 200.0);
}

namespace oracle {

// The string-keyed answer cache the flat table replaced, kept as the
// reference the differential test compares against: one unordered_map from
// cloak.ToString() + '|'-joined "name=value" params to the answer. Its
// keys collide for params containing '|' or '=', so the streams below
// draw params free of both.
template <typename Answer>
class StringKeyedAnswerCache {
 public:
  using Stats = typename AnswerCache<Answer>::Stats;

  const Answer* Lookup(const AnonymizedRequest& ar) {
    const auto it = cache_.find(KeyOf(ar));
    if (it == cache_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    ++stats_.billable_since_flush;
    return &it->second.answer;
  }

  const Answer& Put(const AnonymizedRequest& ar, Answer answer) {
    ++stats_.billable_since_flush;
    Entry entry{ar.cloak, ParamsKeyOf(ar), std::move(answer)};
    return cache_.insert_or_assign(KeyOf(ar), std::move(entry))
        .first->second.answer;
  }

  const Answer* FindStaleFallback(const AnonymizedRequest& ar) {
    const std::string params = ParamsKeyOf(ar);
    const Entry* best = nullptr;
    const std::string* best_key = nullptr;
    int64_t best_overlap = 0;
    for (const auto& [key, entry] : cache_) {
      if (entry.params != params || !entry.cloak.Intersects(ar.cloak)) {
        continue;
      }
      const int64_t w = std::min(entry.cloak.x2, ar.cloak.x2) -
                        std::max(entry.cloak.x1, ar.cloak.x1);
      const int64_t h = std::min(entry.cloak.y2, ar.cloak.y2) -
                        std::max(entry.cloak.y1, ar.cloak.y1);
      const int64_t overlap = w * h;
      if (best == nullptr || overlap > best_overlap ||
          (overlap == best_overlap && key < *best_key)) {
        best = &entry;
        best_key = &key;
        best_overlap = overlap;
      }
    }
    if (best == nullptr) return nullptr;
    ++stats_.stale_serves;
    ++stats_.billable_since_flush;
    return &best->answer;
  }

  size_t Flush() {
    cache_.clear();
    ++stats_.flushes;
    const size_t billable = stats_.billable_since_flush;
    stats_.billable_since_flush = 0;
    return billable;
  }

  size_t size() const { return cache_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    Rect cloak;
    std::string params;
    Answer answer;
  };

  static std::string ParamsKeyOf(const AnonymizedRequest& ar) {
    std::string key;
    for (const NameValue& nv : ar.params) {
      key += '|';
      key += nv.name;
      key += '=';
      key += nv.value;
    }
    return key;
  }

  static std::string KeyOf(const AnonymizedRequest& ar) {
    return ar.cloak.ToString() + ParamsKeyOf(ar);
  }

  std::unordered_map<std::string, Entry> cache_;
  Stats stats_;
};

}  // namespace oracle

// Overlapping power-of-two squares on a small map, so equal-overlap ties
// are common; params from a small alphabet free of '|' and '='.
AnonymizedRequest RandomRequest(Rng* rng, RequestId rid) {
  const Coord side = Coord{4} << rng->NextBounded(3);
  const Coord x = static_cast<Coord>(rng->NextBounded(16)) * 4;
  const Coord y = static_cast<Coord>(rng->NextBounded(16)) * 4;
  static const char* const kNames[] = {"poi", "q", "cat"};
  static const char* const kValues[] = {"rest", "gas", "a", "ab", ""};
  ParamVector params;
  const size_t n = rng->NextBounded(3);
  for (size_t i = 0; i < n; ++i) {
    params.push_back({kNames[rng->NextBounded(3)],
                      kValues[rng->NextBounded(5)]});
  }
  return AnonymizedRequest{rid, {x, y, x + side, y + side}, params};
}

template <typename Got, typename Want>
void ExpectSameStats(const Got& got, const Want& want) {
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.flushes, want.flushes);
  EXPECT_EQ(got.stale_serves, want.stale_serves);
  EXPECT_EQ(got.billable_since_flush, want.billable_since_flush);
}

TEST(AnswerCacheOracleTest, MatchesStringKeyedCacheOnRandomStreams) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    AnswerCache<int> cache;
    oracle::StringKeyedAnswerCache<int> reference;
    int next_answer = 0;
    for (int step = 0; step < 3000; ++step) {
      if (rng.NextBounded(200) == 0) {
        ASSERT_EQ(cache.Flush(), reference.Flush());
        continue;
      }
      const AnonymizedRequest ar = RandomRequest(&rng, step);
      const int* got = cache.Lookup(ar);
      const int* want = reference.Lookup(ar);
      ASSERT_EQ(got == nullptr, want == nullptr) << "step " << step;
      if (got != nullptr) {
        ASSERT_EQ(*got, *want) << "step " << step;
      } else if (rng.NextBounded(3) == 0) {
        // The provider is down: both must pick the same fallback.
        const int* stale = cache.FindStaleFallback(ar);
        const int* stale_want = reference.FindStaleFallback(ar);
        ASSERT_EQ(stale == nullptr, stale_want == nullptr) << "step " << step;
        if (stale != nullptr) {
          ASSERT_EQ(*stale, *stale_want) << "step " << step;
        }
      } else {
        ++next_answer;
        ASSERT_EQ(cache.Put(ar, next_answer), reference.Put(ar, next_answer));
      }
      ASSERT_EQ(cache.size(), reference.size());
      ExpectSameStats(cache.stats(), reference.stats());
    }
  }
}

TEST(AnswerCacheOracleTest, PoiAnswersMatchStringKeyedCache) {
  Rng rng(7);
  // Some POIs share an id but differ in place or category: each is its
  // own record.
  std::vector<PointOfInterest> pool = RandomPois(&rng, 40, 100);
  pool.push_back({3, {5, 5}, "gas"});
  pool.push_back({3, {6, 5}, "rest"});
  PoiAnswerCache cache;
  oracle::StringKeyedAnswerCache<std::vector<PointOfInterest>> reference;
  for (int step = 0; step < 5000; ++step) {
    if (rng.NextBounded(300) == 0) {
      ASSERT_EQ(cache.Flush(), reference.Flush());
      continue;
    }
    const AnonymizedRequest ar = RandomRequest(&rng, step);
    const PoiAnswerCache::Slice* got = cache.Lookup(ar);
    const std::vector<PointOfInterest>* want = reference.Lookup(ar);
    ASSERT_EQ(got == nullptr, want == nullptr) << "step " << step;
    if (got != nullptr) {
      ASSERT_EQ(cache.Materialize(*got), *want) << "step " << step;
    } else if (rng.NextBounded(3) == 0) {
      const PoiAnswerCache::Slice* stale = cache.FindStaleFallback(ar);
      const std::vector<PointOfInterest>* stale_want =
          reference.FindStaleFallback(ar);
      ASSERT_EQ(stale == nullptr, stale_want == nullptr) << "step " << step;
      if (stale != nullptr) {
        ASSERT_EQ(cache.Materialize(*stale), *stale_want) << "step " << step;
      }
    } else {
      std::vector<PointOfInterest> answer(rng.NextBounded(6));
      for (PointOfInterest& poi : answer) {
        poi = pool[rng.NextBounded(pool.size())];
      }
      cache.Put(ar, answer);
      reference.Put(ar, answer);
    }
    ASSERT_EQ(cache.size(), reference.size());
    ExpectSameStats(cache.stats(), reference.stats());
  }
}

// An LbsBackend that fails its first `fail_first` fetches with kUnavailable.
class FlakyBackend : public LbsBackend {
 public:
  explicit FlakyBackend(int fail_first) : fail_remaining_(fail_first) {}

  Result<std::vector<PointOfInterest>> Fetch(
      const AnonymizedRequest& ar) override {
    ++fetches_;
    if (fail_remaining_ > 0) {
      --fail_remaining_;
      return Status::Unavailable("backend down");
    }
    return std::vector<PointOfInterest>{{1, {1, 1}, "rest"}};
  }

  int fetches() const { return fetches_; }

 private:
  int fail_remaining_;
  int fetches_ = 0;
};

const AnonymizedRequest kAr{1, {0, 0, 8, 8}, {{"poi", "rest"}}};

TEST(ResilientLbsClientTest, RetriesTransientFailures) {
  FlakyBackend backend(/*fail_first=*/2);
  ResilientLbsClient client(&backend, ResilienceOptions{});
  const auto answer = client.Fetch(kAr);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(backend.fetches(), 3);
  EXPECT_EQ(client.stats().retries, 2u);
  EXPECT_EQ(client.stats().failures, 0u);
  EXPECT_EQ(client.breaker_state(), ResilientLbsClient::BreakerState::kClosed);
}

TEST(ResilientLbsClientTest, GivesUpAfterMaxAttempts) {
  FlakyBackend backend(/*fail_first=*/1000);
  ResilienceOptions options;
  options.max_attempts = 2;
  ResilientLbsClient client(&backend, options);
  const auto answer = client.Fetch(kAr);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(backend.fetches(), 2);
  EXPECT_EQ(client.stats().failures, 1u);
}

TEST(ResilientLbsClientTest, BreakerOpensFailsFastAndProbesAfterCooldown) {
  FlakyBackend backend(/*fail_first=*/4);  // 2 failed requests x 2 attempts
  ResilienceOptions options;
  options.max_attempts = 2;
  options.breaker_failure_threshold = 2;
  options.breaker_cooldown_requests = 3;
  ResilientLbsClient client(&backend, options);

  EXPECT_FALSE(client.Fetch(kAr).ok());
  EXPECT_EQ(client.breaker_state(), ResilientLbsClient::BreakerState::kClosed);
  EXPECT_FALSE(client.Fetch(kAr).ok());  // second failure trips the breaker
  EXPECT_EQ(client.breaker_state(), ResilientLbsClient::BreakerState::kOpen);
  EXPECT_EQ(client.stats().breaker_opens, 1u);

  // Cooldown: 3 requests fail fast without touching the backend.
  const int fetches_when_open = backend.fetches();
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(client.Fetch(kAr).ok());
  EXPECT_EQ(backend.fetches(), fetches_when_open);
  EXPECT_EQ(client.stats().fail_fast, 3u);

  // The next request is the half-open probe; the backend has recovered, so
  // it succeeds and closes the breaker.
  const auto probed = client.Fetch(kAr);
  ASSERT_TRUE(probed.ok()) << probed.status().ToString();
  EXPECT_EQ(client.breaker_state(), ResilientLbsClient::BreakerState::kClosed);
  ASSERT_TRUE(client.Fetch(kAr).ok());
}

TEST(ResilientLbsClientTest, FailedProbeReopensTheBreaker) {
  FlakyBackend backend(/*fail_first=*/1000);
  ResilienceOptions options;
  options.max_attempts = 1;
  options.breaker_failure_threshold = 1;
  options.breaker_cooldown_requests = 1;
  ResilientLbsClient client(&backend, options);

  EXPECT_FALSE(client.Fetch(kAr).ok());  // trips
  EXPECT_EQ(client.breaker_state(), ResilientLbsClient::BreakerState::kOpen);
  EXPECT_FALSE(client.Fetch(kAr).ok());  // fail fast (cooldown = 1)
  EXPECT_FALSE(client.Fetch(kAr).ok());  // probe fails -> reopen
  EXPECT_EQ(client.breaker_state(), ResilientLbsClient::BreakerState::kOpen);
  EXPECT_EQ(client.stats().breaker_opens, 2u);
}

TEST(ResilientLbsClientTest, InjectedTimeoutExceedsDeadlineWithoutRetry) {
  fault::FaultPlan plan;
  plan.points.push_back({std::string(fault::kLbsTimeout)});
  fault::FaultInjector::Global().Arm(plan, /*seed=*/7);

  FlakyBackend backend(/*fail_first=*/0);
  ResilientLbsClient client(&backend, ResilienceOptions{});
  const auto answer = client.Fetch(kAr);
  fault::FaultInjector::Global().Disarm();

  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(backend.fetches(), 0);  // timed out before reaching the backend
  EXPECT_EQ(client.stats().retries, 0u);  // deadline is not retryable
  EXPECT_EQ(client.stats().deadline_exceeded, 1u);
}

TEST(LbsProviderTest, ServeDegradesToStaleAnswerWhenProviderIsDown) {
  Rng rng(3);
  PoiDatabase pois(RandomPois(&rng, 200, 500));
  CachingLbsFrontend frontend(LbsProvider(std::move(pois), 5));

  // Warm the cache while the provider is healthy.
  const AnonymizedRequest warm{1, {100, 100, 160, 160}, {{"poi", "rest"}}};
  const auto fresh = frontend.Serve(warm);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->degraded);

  // Take the provider down and ask from an overlapping (different) cloak.
  fault::FaultPlan plan;
  plan.points.push_back({std::string(fault::kLbsError)});
  fault::FaultInjector::Global().Arm(plan, /*seed=*/11);
  const AnonymizedRequest moved{2, {120, 120, 180, 180}, {{"poi", "rest"}}};
  const auto degraded = frontend.Serve(moved);

  // A disjoint cloak has no fallback: the request is lost, not mis-served.
  const AnonymizedRequest far{3, {400, 400, 420, 420}, {{"poi", "rest"}}};
  const auto lost = frontend.Serve(far);
  fault::FaultInjector::Global().Disarm();

  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->degraded);
  EXPECT_EQ(frontend.cache_stats().stale_serves, 1u);
  ASSERT_FALSE(lost.ok());
  EXPECT_EQ(lost.status().code(), StatusCode::kUnavailable);
  // Billing: warm fetch + stale serve are billable; the lost request is not.
  EXPECT_EQ(frontend.FlushAndBill(), 2u);
}

TEST(LbsProviderTest, AnswersAreNearestOfRequestedCategory) {
  std::vector<PointOfInterest> pois = {{1, {10, 10}, "rest"},
                                       {2, {12, 10}, "rest"},
                                       {3, {200, 200}, "rest"},
                                       {4, {10, 11}, "gas"}};
  const LbsProvider provider(PoiDatabase(std::move(pois)), 2);
  const AnonymizedRequest ar{1, {8, 8, 16, 16}, {{"poi", "rest"}}};
  const auto answer = provider.Answer(ar);
  ASSERT_EQ(answer.size(), 2u);
  EXPECT_EQ(answer[0].id, 1);
  EXPECT_EQ(answer[1].id, 2);
}

}  // namespace
}  // namespace pasa
