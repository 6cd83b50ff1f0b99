#include "model/location_database.h"

#include <cassert>

namespace pasa {

namespace {

uint64_t HashOfUser(UserId user) {
  return Mix64(static_cast<uint64_t>(user));
}

// The hash of row i, for the index to re-place rows when it grows.
auto RowHashes(const std::vector<UserLocation>& rows) {
  return [&rows](uint32_t i) { return HashOfUser(rows[i].user); };
}

}  // namespace

LocationDatabase::LocationDatabase(std::vector<UserLocation> rows)
    : rows_(std::move(rows)) {
  index_.Reserve(rows_.size(), 0, RowHashes(rows_));
  for (size_t i = 0; i < rows_.size(); ++i) {
    const uint32_t row = ItemNumber(i);
    const UserId user = rows_[row].user;
    const uint64_t hash = HashOfUser(user);
    const bool fresh = FindRow(user, hash) == kNoItem;
    assert(fresh && "duplicate user ids in location database");
    if (fresh) index_.Insert(hash, row, RowHashes(rows_));
  }
}

void LocationDatabase::Reserve(size_t n) {
  rows_.reserve(n);
  // Add and the constructor keep size() within kMaxItems.
  index_.Reserve(n, static_cast<uint32_t>(rows_.size()), RowHashes(rows_));
}

bool LocationDatabase::Add(UserId user, Point location) {
  const uint64_t hash = HashOfUser(user);
  if (FindRow(user, hash) != kNoItem) return false;
  const uint32_t row = ItemNumber(rows_.size());
  rows_.push_back(UserLocation{user, location});
  index_.Insert(hash, row, RowHashes(rows_));
  return true;
}

void LocationDatabase::Prefetch(UserId user) const {
  index_.Prefetch(HashOfUser(user));
}

uint32_t LocationDatabase::FindRow(UserId user, uint64_t hash) const {
  return index_.Find(hash, [&](uint32_t i) { return rows_[i].user == user; });
}

Result<size_t> LocationDatabase::IndexOf(UserId user) const {
  const uint32_t row = FindRow(user, HashOfUser(user));
  if (row == kNoItem) {
    return Status::NotFound("user " + std::to_string(user) +
                            " not in location database");
  }
  return row;
}

Status LocationDatabase::MoveRow(size_t row, Point new_location) {
  if (row >= rows_.size()) return Status::InvalidArgument("row out of range");
  rows_[row].location = new_location;
  return Status::Ok();
}

Rect LocationDatabase::BoundingBox() const {
  if (rows_.empty()) return Rect{};
  Rect box = CellAt(rows_.front().location);
  for (const auto& r : rows_) box = Union(box, CellAt(r.location));
  return box;
}

size_t LocationDatabase::CountInside(const Rect& region) const {
  size_t n = 0;
  for (const auto& r : rows_) {
    if (region.Contains(r.location)) ++n;
  }
  return n;
}

}  // namespace pasa
