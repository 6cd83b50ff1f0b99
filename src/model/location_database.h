#ifndef PASA_MODEL_LOCATION_DATABASE_H_
#define PASA_MODEL_LOCATION_DATABASE_H_

#include <cstdint>
#include <vector>

#include "common/flat_index.h"
#include "common/status.h"
#include "geo/point.h"
#include "geo/rect.h"

namespace pasa {

/// Identifier for a mobile user (the `userid` attribute of schema D).
using UserId = int64_t;

/// One row of the location database: relation D = {userid, locx, locy}.
struct UserLocation {
  UserId user = 0;
  Point location;

  friend bool operator==(const UserLocation& a, const UserLocation& b) =
      default;
};

/// A snapshot of the location database (Section II-A): the locations of all
/// devices as provided by the Mobile Positioning Center at one instant.
/// The CSP's state over time is a sequence of these snapshots.
///
/// Rows are stored in insertion order; `index` below refers to a row's
/// position, which the anonymization modules use as a dense user handle.
/// The snapshot is the one owner of the user id -> row mapping: a FlatIndex
/// of 32-bit row numbers, hashed on Mix64 of the id and compared against
/// the rows themselves, so the index costs 4 bytes a slot (8 to 16 a row)
/// and stores no id of its own. A snapshot holds at most kMaxItems rows.
class LocationDatabase {
 public:
  LocationDatabase() = default;
  /// Builds a snapshot from rows. User ids need not be dense but must be
  /// unique; uniqueness is the caller's contract (checked in debug builds;
  /// a duplicate id resolves to its first row). Stops the process on more
  /// than kMaxItems rows (ItemNumber).
  explicit LocationDatabase(std::vector<UserLocation> rows);

  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  const UserLocation& row(size_t index) const { return rows_[index]; }
  const std::vector<UserLocation>& rows() const { return rows_; }

  /// Appends one row and returns true, or returns false and adds nothing
  /// when `user` is already in the snapshot. One probe either way, plus a
  /// rehash when the index doubles. Stops the process rather than number a
  /// row past kMaxItems (ItemNumber).
  bool Add(UserId user, Point location);

  /// Makes room for `n` rows and their index slots, so that Adding them
  /// neither reallocates nor over-sizes the index.
  void Reserve(size_t n);

  /// Starts loading the index slot an Add or IndexOf of `user` reads
  /// first. A hint only: a bulk load calls it a few rows ahead of each Add,
  /// so the slot's cache miss overlaps other work.
  void Prefetch(UserId user) const;

  /// Returns the row index of `user`, or NotFound. One probe.
  Result<size_t> IndexOf(UserId user) const;

  /// Moves the user at `row` to `new_location` (the snapshot-to-snapshot
  /// update of Section II-A). InvalidArgument if `row` is out of range.
  Status MoveRow(size_t row, Point new_location);

  /// Smallest half-open rectangle containing all locations; the zero rect
  /// when empty.
  Rect BoundingBox() const;

  /// Number of rows whose location lies inside `region` — the quantity d(m)
  /// of Definition 7 when `region` is a tree quadrant. Linear scan; the tree
  /// modules maintain these counts incrementally instead.
  size_t CountInside(const Rect& region) const;

  /// Approximate heap bytes held by the rows (memory accounting,
  /// obs/mem.h). The id index is counted apart, by IndexApproxBytes.
  uint64_t ApproxBytes() const {
    return static_cast<uint64_t>(rows_.capacity()) * sizeof(UserLocation);
  }

  /// Heap bytes held by the user id -> row index: its slot capacity times
  /// 4. Exact, not an estimate.
  uint64_t IndexApproxBytes() const { return index_.ApproxBytes(); }

 private:
  /// Row of `user`, whose hash is `hash`, or kNoItem.
  uint32_t FindRow(UserId user, uint64_t hash) const;

  std::vector<UserLocation> rows_;
  /// Row of every user id. Ids never change after a row is added, so only
  /// the constructor, Reserve and Add write it.
  FlatIndex index_;
};

}  // namespace pasa

#endif  // PASA_MODEL_LOCATION_DATABASE_H_
