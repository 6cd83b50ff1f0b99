#include "model/service_request.h"

namespace pasa {

Result<size_t> ValidSenderRow(const ServiceRequest& sr,
                              const LocationDatabase& db) {
  Result<size_t> row = db.IndexOf(sr.sender);
  if (!row.ok()) return row.status();
  if (db.row(*row).location != sr.location) {
    return Status::InvalidArgument(
        "service request is not valid w.r.t. the snapshot (location "
        "mismatch for user " +
        std::to_string(sr.sender) + ")");
  }
  return row;
}

}  // namespace pasa
