#ifndef PASA_COMMON_FLAT_INDEX_H_
#define PASA_COMMON_FLAT_INDEX_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace pasa {

/// What FlatIndex::Find returns when no item matches.
inline constexpr uint32_t kNoItem = UINT32_MAX;

/// Items of a FlatIndex are numbered 0 .. kMaxItems - 1: a slot holds
/// item + 1 in 32 bits, and kNoItem is kept for "absent".
inline constexpr size_t kMaxItems = kNoItem;

/// Whether `count` items can be numbered in 32 bits. The one limit check:
/// ItemNumber stops the process past it, and loaders turn input past it
/// away before they allocate.
constexpr bool ItemCountFits(size_t count) { return count <= kMaxItems; }

/// Narrows the number of the `n`-th item (0-based; `n` is a container size,
/// so `n + 1` cannot overflow) to 32 bits. Reaching the limit is a program
/// fault, not a request error, so it stops the process loudly instead of
/// wrapping an index.
inline uint32_t ItemNumber(size_t n) {
  if (!ItemCountFits(n + 1)) {
    std::fprintf(stderr, "flat index: more than 2^32-1 items\n");
    std::abort();
  }
  return static_cast<uint32_t>(n);
}

/// The SplitMix64 finalizer: spreads any 64-bit key over every bit, so the
/// low bits FlatIndex keeps are as good as the high ones.
inline uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Open-addressing index over items numbered 0..n-1 that live elsewhere:
/// linear probing, power-of-two capacity, at most half full, empty until
/// the first insert or Reserve. The caller owns the items, so it hashes and
/// compares them: a slot is 4 bytes and no key is stored twice.
///
/// A slot holds item + 1 (0 is empty) in its low log2(capacity) bits, since
/// item + 1 < capacity, and high bits of the item's hash in the bits above
/// (11 of them at 2^21 slots, fewer as the table grows). A probe calls
/// `equal`, which reads the item, only when those bits match, so a lookup
/// mostly reads just the item it finds, however long its probe run is.
class FlatIndex {
 public:
  /// The item whose hash is `hash` and for which `equal(item)` holds.
  template <typename Equal>
  uint32_t Find(uint64_t hash, Equal&& equal) const {
    if (slots_.empty()) return kNoItem;
    const size_t mask = slots_.size() - 1;
    const uint32_t tag = Tag(hash);
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const uint32_t slot = slots_[i];
      if (slot == 0) return kNoItem;
      const uint32_t item = (slot & item_mask_) - 1;
      if ((slot & ~item_mask_) == tag && equal(item)) return item;
    }
  }

  /// Adds `item`, known to be absent, the `items`-th one stored. Growing
  /// re-places items 0..item-1 by `hash_of(i)`.
  template <typename HashOf>
  void Insert(uint64_t hash, uint32_t item, HashOf&& hash_of) {
    if (2 * (static_cast<size_t>(item) + 1) > slots_.size()) {
      Rehash(std::max<size_t>(kMinSlots, 2 * slots_.size()), item, hash_of);
    }
    Place(hash, item);
  }

  /// Makes room for `n` items in all while items 0..items-1 are stored, so
  /// that inserting up to `n` never grows the table. The capacity is the
  /// one `n` inserts from empty would reach.
  template <typename HashOf>
  void Reserve(size_t n, uint32_t items, HashOf&& hash_of) {
    const size_t capacity = std::bit_ceil(std::max<size_t>(kMinSlots, 2 * n));
    if (capacity > slots_.size()) Rehash(capacity, items, hash_of);
  }

  /// Starts loading the slot a Find or Insert of `hash` probes first, so
  /// that a bulk load can overlap one row's cache miss with the parsing of
  /// the rows after it.
  void Prefetch(uint64_t hash) const {
    if (!slots_.empty()) __builtin_prefetch(&slots_[hash & (slots_.size() - 1)]);
  }

  /// Drops every item and frees the table.
  void Clear() {
    std::vector<uint32_t>().swap(slots_);
    item_mask_ = 0;
  }

  /// Heap bytes held: 4 per slot.
  uint64_t ApproxBytes() const {
    return static_cast<uint64_t>(slots_.capacity()) * sizeof(uint32_t);
  }

 private:
  static constexpr size_t kMinSlots = 16;

  template <typename HashOf>
  void Rehash(size_t capacity, uint32_t items, HashOf& hash_of) {
    slots_.assign(capacity, 0);
    // Past 2^32 slots the item takes the whole slot and no tag is kept.
    item_mask_ = static_cast<uint32_t>(
        std::min<size_t>(capacity, size_t{1} << 32) - 1);
    for (uint32_t i = 0; i < items; ++i) Place(hash_of(i), i);
  }

  void Place(uint64_t hash, uint32_t item) {
    const size_t mask = slots_.size() - 1;
    size_t i = hash & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = (item + 1) | Tag(hash);
  }

  /// The hash bits a slot keeps above its item: high bits, independent of
  /// the low ones that pick the home slot.
  uint32_t Tag(uint64_t hash) const {
    return static_cast<uint32_t>(hash >> 32) & ~item_mask_;
  }

  std::vector<uint32_t> slots_;
  /// The slot bits that hold item + 1: capacity - 1.
  uint32_t item_mask_ = 0;
};

}  // namespace pasa

#endif  // PASA_COMMON_FLAT_INDEX_H_
