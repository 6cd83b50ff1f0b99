#ifndef PASA_LBS_ANSWER_CACHE_H_
#define PASA_LBS_ANSWER_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/flat_index.h"
#include "geo/rect.h"
#include "model/anonymized_request.h"
#include "obs/mem.h"

namespace pasa {
namespace answer_cache_internal {

/// Frees a vector's buffer (`v = {}` would keep its capacity).
template <typename T>
void Release(std::vector<T>& v) {
  std::vector<T>().swap(v);
}

/// Calls `emit(byte)` for each byte of `n` as a LEB128 length prefix. A
/// stream of length-prefixed strings is prefix-free, so two different
/// sequences of strings never encode to the same bytes.
template <typename Emit>
void ForEachLengthByte(size_t n, Emit&& emit) {
  do {
    const unsigned char low = n & 0x7f;
    n >>= 7;
    emit(static_cast<unsigned char>(n != 0 ? low | 0x80 : low));
  } while (n != 0);
}

/// FNV-1a over a byte stream. Feeding a sequence in pieces hashes it as
/// one, so a key can be hashed from its parts without being built.
struct ByteHash {
  uint64_t h = 0xCBF29CE484222325ULL;
  void Byte(unsigned char c) { h = (h ^ c) * 0x100000001B3ULL; }
  void Bytes(std::string_view bytes) {
    for (const char c : bytes) Byte(static_cast<unsigned char>(c));
  }
  void Length(size_t n) {
    ForEachLengthByte(n, [&](unsigned char c) { Byte(c); });
  }
  uint64_t Finish() const { return Mix64(h); }
};

inline uint64_t HashOfBytes(std::string_view bytes) {
  ByteHash hash;
  hash.Bytes(bytes);
  return hash.Finish();
}

/// Byte strings stored once each, back to back in one arena, numbered in
/// insertion order and found by content. A string's hash is HashOfBytes of
/// its stored bytes; callers may compute it piecewise with ByteHash.
class ByteInterner {
 public:
  size_t size() const { return offsets_.size(); }

  std::string_view at(uint32_t id) const {
    const size_t end = id + 1 < offsets_.size() ? offsets_[id + 1]
                                                : bytes_.size();
    return std::string_view(bytes_.data() + offsets_[id], end - offsets_[id]);
  }

  /// The string hashing to `hash` whose bytes satisfy `equal`; allocates
  /// nothing.
  template <typename Equal>
  uint32_t Find(uint64_t hash, Equal&& equal) const {
    return index_.Find(hash,
                       [&](uint32_t id) { return equal(at(id)); });
  }

  /// Stores a new string (known absent) by appending its bytes with
  /// `write(std::vector<char>&)`, and returns its id.
  template <typename Write>
  uint32_t Add(uint64_t hash, Write&& write) {
    const uint32_t id = ItemNumber(offsets_.size());
    offsets_.push_back(ItemNumber(bytes_.size()));
    write(bytes_);
    ItemNumber(bytes_.size());
    index_.Insert(hash, id,
                  [&](uint32_t i) { return HashOfBytes(at(i)); });
    return id;
  }

  void Clear() {
    Release(bytes_);
    Release(offsets_);
    index_.Clear();
  }

  uint64_t ApproxBytes() const {
    return obs::VectorApproxBytes(bytes_) +
           obs::VectorApproxBytes(offsets_) + index_.ApproxBytes();
  }

 private:
  std::vector<char> bytes_;
  std::vector<uint32_t> offsets_;  ///< start of each string in bytes_
  FlatIndex index_;
};

inline void AppendLength(std::vector<char>& out, size_t n) {
  ForEachLengthByte(n,
                    [&](unsigned char c) { out.push_back(static_cast<char>(c)); });
}

/// Reads a length written by AppendLength at `*pos` and advances past it.
inline size_t ReadLength(std::string_view bytes, size_t* pos) {
  size_t n = 0;
  for (int shift = 0;; shift += 7) {
    const unsigned char byte = static_cast<unsigned char>(bytes[(*pos)++]);
    n |= static_cast<size_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return n;
  }
}

/// Reads one length-prefixed string at `*pos` and advances past it.
inline std::string_view ReadString(std::string_view bytes, size_t* pos) {
  const size_t n = ReadLength(bytes, pos);
  const std::string_view s = bytes.substr(*pos, n);
  *pos += n;
  return s;
}

/// A parameter vector's interned form: every name and value in order, each
/// length-prefixed. Equal vectors, and only they, encode alike.
inline uint64_t HashOfParams(const ParamVector& params) {
  ByteHash hash;
  for (const NameValue& nv : params) {
    hash.Length(nv.name.size());
    hash.Bytes(nv.name);
    hash.Length(nv.value.size());
    hash.Bytes(nv.value);
  }
  return hash.Finish();
}

inline bool ParamsEqual(std::string_view encoded, const ParamVector& params) {
  size_t pos = 0;
  for (const NameValue& nv : params) {
    if (pos == encoded.size() || ReadString(encoded, &pos) != nv.name ||
        pos == encoded.size() || ReadString(encoded, &pos) != nv.value) {
      return false;
    }
  }
  return pos == encoded.size();
}

inline void AppendParams(std::vector<char>& out, const ParamVector& params) {
  for (const NameValue& nv : params) {
    AppendLength(out, nv.name.size());
    out.insert(out.end(), nv.name.begin(), nv.name.end());
    AppendLength(out, nv.value.size());
    out.insert(out.end(), nv.value.begin(), nv.value.end());
  }
}

}  // namespace answer_cache_internal

/// The Section VII "Beyond k-anonymity" extension: the anonymization server
/// caches LBS answers keyed by (cloak, parameters), so the LBS provider
/// never sees duplicate anonymized requests within (or across) snapshots and
/// cannot mount the l-diversity / t-closeness style frequency-counting
/// attacks. The cache also keeps the aggregate request count the anonymizer
/// submits to the LBS at flush time for billing.
///
/// Beyond deduplication, the cache doubles as the degradation store of the
/// self-healing serving path: when the provider is unreachable,
/// FindStaleFallback offers the best previously cached answer for the same
/// parameters whose cloak overlaps the request's (a stale/approximate answer
/// beats a dropped request, and the k-anonymity of the cloak is unaffected).
///
/// Layout: each parameter vector is interned once (length-prefixed names and
/// values, back to back in one arena) and named by a 32-bit id. Entries
/// (cloak, params id, answer) sit densely in insertion order, found through
/// one open-addressing table hashed on the cloak's four coordinates and the
/// params id, and chained per params id for the fallback. A lookup builds
/// no key and allocates nothing. Pointers and references to answers stay
/// valid until the next Put or Flush.
template <typename Answer>
class AnswerCache {
 public:
  struct Stats {
    size_t hits = 0;
    size_t misses = 0;
    size_t flushes = 0;
    /// Fallback answers served while the provider was unreachable.
    size_t stale_serves = 0;
    /// Requests served since the last flush — reported to the LBS for
    /// billing when the cache is flushed (the paper's billing adjustment).
    size_t billable_since_flush = 0;
    /// Entries FindStaleFallback examined: only those sharing the
    /// request's parameters.
    size_t fallback_visits = 0;
  };

  /// Exact lookup by (cloak, params). Counts a hit (and bills it) or a
  /// miss; a miss is expected to be followed by Put or FindStaleFallback.
  const Answer* Lookup(const AnonymizedRequest& ar) {
    namespace internal = answer_cache_internal;
    const uint32_t params =
        FindParams(internal::HashOfParams(ar.params), ar.params);
    const uint32_t entry =
        params == kNoItem
            ? kNoItem
            : FindEntry(ar.cloak, params, KeyHash(ar.cloak, params));
    if (entry == kNoItem) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    ++stats_.billable_since_flush;
    return &entries_[entry].answer;
  }

  /// Stores a freshly fetched (and therefore billable) answer.
  const Answer& Put(const AnonymizedRequest& ar, Answer answer) {
    namespace internal = answer_cache_internal;
    ++stats_.billable_since_flush;
    const uint64_t params_hash = internal::HashOfParams(ar.params);
    uint32_t params = FindParams(params_hash, ar.params);
    if (params == kNoItem) {
      params = params_.Add(params_hash, [&](std::vector<char>& out) {
        internal::AppendParams(out, ar.params);
      });
      bucket_head_.push_back(kNoItem);
    }
    const uint64_t hash = KeyHash(ar.cloak, params);
    const uint32_t found = FindEntry(ar.cloak, params, hash);
    if (found != kNoItem) {
      entries_[found].answer = std::move(answer);
      return entries_[found].answer;
    }
    const uint32_t entry = ItemNumber(entries_.size());
    entries_.push_back(
        Entry{ar.cloak, params, bucket_head_[params], std::move(answer)});
    bucket_head_[params] = entry;
    index_.Insert(hash, entry, [&](uint32_t e) {
      return KeyHash(entries_[e].cloak, entries_[e].params);
    });
    return entries_.back().answer;
  }

  /// Degradation path: the cached answer with identical parameters whose
  /// cloak overlaps `ar`'s the most (ties go to the smaller
  /// Rect::ToString, independent of insertion order); nullptr when nothing
  /// overlaps. Visits only the entries sharing `ar`'s parameters.
  /// Served answers still count as billable — the data was produced by the
  /// LBS.
  const Answer* FindStaleFallback(const AnonymizedRequest& ar) {
    namespace internal = answer_cache_internal;
    const uint32_t params =
        FindParams(internal::HashOfParams(ar.params), ar.params);
    if (params == kNoItem) return nullptr;
    const Entry* best = nullptr;
    int64_t best_overlap = 0;
    for (uint32_t e = bucket_head_[params]; e != kNoItem;
         e = entries_[e].next_same_params) {
      ++stats_.fallback_visits;
      const Entry& entry = entries_[e];
      if (!entry.cloak.Intersects(ar.cloak)) continue;
      const int64_t overlap = OverlapArea(entry.cloak, ar.cloak);
      if (best == nullptr || overlap > best_overlap ||
          (overlap == best_overlap &&
           entry.cloak.ToString() < best->cloak.ToString())) {
        best = &entry;
        best_overlap = overlap;
      }
    }
    if (best == nullptr) return nullptr;
    ++stats_.stale_serves;
    ++stats_.billable_since_flush;
    return &best->answer;
  }

  /// Returns the cached answer for `ar`'s (cloak, params) key, fetching it
  /// from the LBS via `fetch` on a miss. Only misses reach the provider.
  const Answer& GetOrFetch(const AnonymizedRequest& ar,
                           const std::function<Answer()>& fetch) {
    if (const Answer* cached = Lookup(ar)) return *cached;
    return Put(ar, fetch());
  }

  /// Drops every cached answer and interned parameter vector, releasing
  /// their memory (the paper flushes "at infrequent intervals, for instance
  /// once a day" to absorb POI churn), and returns the billable request
  /// count accumulated since the previous flush.
  size_t Flush() {
    answer_cache_internal::Release(entries_);
    index_.Clear();
    params_.Clear();
    answer_cache_internal::Release(bucket_head_);
    ++stats_.flushes;
    const size_t billable = stats_.billable_since_flush;
    stats_.billable_since_flush = 0;
    return billable;
  }

  size_t size() const { return entries_.size(); }
  const Stats& stats() const { return stats_; }

  /// Heap bytes held: the entry array, the table, the params arena with
  /// its offsets and table, and the per-params chain heads (memory
  /// accounting, obs/mem.h). An answer's own heap, if it has any, is not
  /// counted.
  uint64_t ApproxBytes() const {
    return obs::VectorApproxBytes(entries_) + index_.ApproxBytes() +
           params_.ApproxBytes() + obs::VectorApproxBytes(bucket_head_);
  }

  /// The cached (cloak, params) keys, rendered injectively and sorted: the
  /// cloak as Rect::ToString, then per parameter `|<len>:<name>=<len>:
  /// <value>`. Callers that fold cache contents into a canonical state
  /// digest (the explorer's visited-set hashing) need this stable view.
  std::vector<std::string> SortedKeys() const {
    std::vector<std::string> keys;
    keys.reserve(entries_.size());
    for (const Entry& entry : entries_) {
      std::string key = entry.cloak.ToString();
      const auto append = [&](char separator, std::string_view s) {
        key += separator;
        key += std::to_string(s.size());
        key += ':';
        key += s;
      };
      const std::string_view encoded = params_.at(entry.params);
      for (size_t pos = 0; pos < encoded.size();) {
        append('|', answer_cache_internal::ReadString(encoded, &pos));
        append('=', answer_cache_internal::ReadString(encoded, &pos));
      }
      keys.push_back(std::move(key));
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  }

 private:
  struct Entry {
    Rect cloak;
    uint32_t params = 0;
    /// The previous entry with the same params id (kNoItem ends the chain).
    uint32_t next_same_params = kNoItem;
    Answer answer;
  };

  static int64_t OverlapArea(const Rect& a, const Rect& b) {
    const int64_t w = std::min(a.x2, b.x2) - std::max(a.x1, b.x1);
    const int64_t h = std::min(a.y2, b.y2) - std::max(a.y1, b.y1);
    return std::max<int64_t>(w, 0) * std::max<int64_t>(h, 0);
  }

  // rid deliberately excluded: duplicates must collide.
  static uint64_t KeyHash(const Rect& cloak, uint32_t params) {
    return Mix64(
        static_cast<uint64_t>(cloak.x1) * 0x9E3779B97F4A7C15ULL ^
        static_cast<uint64_t>(cloak.y1) * 0xC2B2AE3D27D4EB4FULL ^
        static_cast<uint64_t>(cloak.x2) * 0x165667B19E3779F9ULL ^
        static_cast<uint64_t>(cloak.y2) * 0xD6E8FEB86659FD93ULL ^ params);
  }

  uint32_t FindParams(uint64_t hash, const ParamVector& params) const {
    return params_.Find(hash, [&](std::string_view encoded) {
      return answer_cache_internal::ParamsEqual(encoded, params);
    });
  }

  uint32_t FindEntry(const Rect& cloak, uint32_t params,
                     uint64_t hash) const {
    return index_.Find(hash, [&](uint32_t e) {
      return entries_[e].params == params && entries_[e].cloak == cloak;
    });
  }

  std::vector<Entry> entries_;
  FlatIndex index_;
  answer_cache_internal::ByteInterner params_;
  /// Per params id, the newest entry with those params.
  std::vector<uint32_t> bucket_head_;
  Stats stats_;
};

}  // namespace pasa

#endif  // PASA_LBS_ANSWER_CACHE_H_
