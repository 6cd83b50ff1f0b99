#ifndef PASA_MODEL_LOCATION_DATABASE_H_
#define PASA_MODEL_LOCATION_DATABASE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

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
/// The snapshot is the one owner of the user id -> row mapping: it keeps a
/// hash index over its rows that every id lookup goes through.
class LocationDatabase {
 public:
  LocationDatabase() = default;
  /// Builds a snapshot from rows. User ids need not be dense but must be
  /// unique; uniqueness is the caller's contract (checked in debug builds;
  /// a duplicate id resolves to its first row).
  explicit LocationDatabase(std::vector<UserLocation> rows);

  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  const UserLocation& row(size_t index) const { return rows_[index]; }
  const std::vector<UserLocation>& rows() const { return rows_; }

  /// Appends one row and returns true, or returns false and adds nothing
  /// when `user` is already in the snapshot. One hash insert either way.
  bool Add(UserId user, Point location);

  /// Makes room for `n` rows and their index entries, so that Adding them
  /// neither reallocates nor over-sizes the index.
  void Reserve(size_t n) {
    rows_.reserve(n);
    row_of_user_.reserve(n);
  }

  /// Returns the row index of `user`, or NotFound. One hash lookup.
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

  /// Approximate heap bytes held by the user id -> row index: the bucket
  /// array plus one node (key, row, next pointer) per user.
  uint64_t IndexApproxBytes() const {
    return static_cast<uint64_t>(row_of_user_.bucket_count()) *
               sizeof(void*) +
           static_cast<uint64_t>(row_of_user_.size()) *
               (sizeof(std::pair<const UserId, size_t>) + sizeof(void*));
  }

 private:
  std::vector<UserLocation> rows_;
  /// Row of every user id. Ids never change after a row is added, so only
  /// the constructor and Add write it.
  std::unordered_map<UserId, size_t> row_of_user_;
};

}  // namespace pasa

#endif  // PASA_MODEL_LOCATION_DATABASE_H_
