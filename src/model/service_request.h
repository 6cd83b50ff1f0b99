#ifndef PASA_MODEL_SERVICE_REQUEST_H_
#define PASA_MODEL_SERVICE_REQUEST_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "geo/point.h"
#include "model/location_database.h"

namespace pasa {

/// One name-value pair of a request's parameter vector V, e.g.
/// ("poi", "rest") or ("cat", "ital").
struct NameValue {
  std::string name;
  std::string value;

  friend bool operator==(const NameValue& a, const NameValue& b) = default;
};

/// The parameter vector V carried unchanged from service request to
/// anonymized request.
using ParamVector = std::vector<NameValue>;

/// A service request (Definition 1): tuple <u, (x, y), V> created by the CSP
/// from a user's request plus the MPC-provided location.
struct ServiceRequest {
  UserId sender = 0;
  Point location;
  ParamVector params;

  friend bool operator==(const ServiceRequest& a, const ServiceRequest& b) =
      default;
};

/// `id(SR)` of the paper: the sender identifier.
inline UserId id(const ServiceRequest& sr) { return sr.sender; }

/// `loc(SR)` of the paper: the request's coordinates.
inline Point loc(const ServiceRequest& sr) { return sr.location; }

/// The sender-validity check of Definition 1: returns the snapshot row of
/// `sr`'s sender when the row <u, x, y> appears in `db`. Fails with NotFound
/// when the sender is not in the snapshot and with InvalidArgument when the
/// snapshot has them at another location. Every request path (the cloaking
/// table, the anonymizer, the CSP) validates through this one function.
Result<size_t> ValidSenderRow(const ServiceRequest& sr,
                              const LocationDatabase& db);

/// True if the request is valid w.r.t. `db`: ValidSenderRow succeeds.
inline bool IsValid(const ServiceRequest& sr, const LocationDatabase& db) {
  return ValidSenderRow(sr, db).ok();
}

}  // namespace pasa

#endif  // PASA_MODEL_SERVICE_REQUEST_H_
