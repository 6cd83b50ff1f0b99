#include "model/cloaking.h"

#include <algorithm>
#include <limits>

namespace pasa {

int64_t CloakingTable::TotalCost() const {
  int64_t total = 0;
  for (const Rect& r : cloaks_) total += r.Area();
  return total;
}

double CloakingTable::AverageArea() const {
  if (cloaks_.empty()) return 0.0;
  return static_cast<double>(TotalCost()) / static_cast<double>(cloaks_.size());
}

std::unordered_map<std::string, size_t> CloakingTable::GroupSizesByRegion()
    const {
  std::unordered_map<std::string, size_t> groups;
  groups.reserve(cloaks_.size());
  for (const Rect& r : cloaks_) ++groups[r.ToString()];
  return groups;
}

size_t CloakingTable::MinGroupSize() const {
  const auto groups = GroupSizesByRegion();
  size_t best = 0;
  for (const auto& [region, count] : groups) {
    if (best == 0 || count < best) best = count;
  }
  return best;
}

bool CloakingTable::IsMasking(const LocationDatabase& db) const {
  if (db.size() != cloaks_.size()) return false;
  for (size_t i = 0; i < cloaks_.size(); ++i) {
    if (!cloaks_[i].Contains(db.row(i).location)) return false;
  }
  return true;
}

Result<AnonymizedRequest> CloakingTable::Apply(const LocationDatabase& db,
                                               const ServiceRequest& sr,
                                               RequestId rid) const {
  Result<size_t> index = ValidSenderRow(sr, db);
  if (!index.ok()) return index.status();
  if (*index >= cloaks_.size()) {
    return Status::Internal("cloaking table smaller than snapshot");
  }
  return AnonymizedRequest{rid, cloaks_[*index], sr.params};
}

}  // namespace pasa
