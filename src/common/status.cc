#include "common/status.h"

namespace pasa {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInfeasible:
      return "INFEASIBLE";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kUnavailable:
      return "UNAVAILABLE";
    case StatusCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
  }
  return "UNKNOWN";
}

Result<StatusCode> ParseStatusCode(std::string_view name) {
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kInfeasible, StatusCode::kInvalidArgument,
        StatusCode::kInternal, StatusCode::kNotFound, StatusCode::kUnavailable,
        StatusCode::kDeadlineExceeded}) {
    if (name == StatusCodeName(code)) return code;
  }
  return Status::InvalidArgument("unknown status code '" + std::string(name) +
                                 "'");
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace pasa
