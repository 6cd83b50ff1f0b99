#include "model/location_database.h"

#include <cassert>

namespace pasa {

LocationDatabase::LocationDatabase(std::vector<UserLocation> rows)
    : rows_(std::move(rows)) {
  row_of_user_.reserve(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) {
    [[maybe_unused]] const bool inserted =
        row_of_user_.emplace(rows_[i].user, i).second;
    assert(inserted && "duplicate user ids in location database");
  }
}

bool LocationDatabase::Add(UserId user, Point location) {
  if (!row_of_user_.try_emplace(user, rows_.size()).second) return false;
  rows_.push_back(UserLocation{user, location});
  return true;
}

Result<size_t> LocationDatabase::IndexOf(UserId user) const {
  const auto it = row_of_user_.find(user);
  if (it == row_of_user_.end()) {
    return Status::NotFound("user " + std::to_string(user) +
                            " not in location database");
  }
  return it->second;
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
