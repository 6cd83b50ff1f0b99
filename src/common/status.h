#ifndef PASA_COMMON_STATUS_H_
#define PASA_COMMON_STATUS_H_

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace pasa {

/// Error category carried by a `Status`. Mirrors the subset of conditions the
/// library can actually report; keep this list short and meaningful.
enum class StatusCode : uint8_t {
  kOk = 0,
  /// The request cannot be satisfied for any input of this shape, e.g. fewer
  /// than k locations in the database so no k-anonymous policy exists.
  kInfeasible,
  /// A caller-supplied argument is out of range or malformed.
  kInvalidArgument,
  /// An internal invariant was violated; indicates a library bug.
  kInternal,
  /// The entity looked up (user, node, jurisdiction) does not exist.
  kNotFound,
  /// A dependency (the LBS provider, a jurisdiction server) is temporarily
  /// unable to serve; retrying later may succeed.
  kUnavailable,
  /// The operation did not complete within its per-request deadline.
  kDeadlineExceeded,
};

/// Returns a short stable name for `code` ("OK", "INFEASIBLE", ...).
const char* StatusCodeName(StatusCode code);

/// A lightweight error-carrying result, used instead of exceptions on all
/// public API boundaries (the library is exception-free by design).
///
/// Typical use:
///   Status s = anonymizer.Build(db);
///   if (!s.ok()) { /* inspect s.code(), s.message() */ }
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  /// Constructs a status with `code` and a human-readable `message`.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// Factory helpers, one per non-OK code.
  static Status Ok() { return Status(); }
  static Status Infeasible(std::string msg) {
    return Status(StatusCode::kInfeasible, std::move(msg));
  }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders "CODE: message" for logs and test failures.
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Holds either a value of type `T` or an error `Status`. Accessing the value
/// of an error result aborts in debug builds (assert) and is undefined
/// otherwise, matching the usual StatusOr contract.
template <typename T>
class Result {
 public:
  /// Implicit from a value: allows `return some_value;`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit from an error status: allows `return Status::Infeasible(...)`.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result(Status) requires a non-OK status");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;  // OK when value_ is set.
};

/// Inverse of StatusCodeName; InvalidArgument on any other name.
Result<StatusCode> ParseStatusCode(std::string_view name);

}  // namespace pasa

#endif  // PASA_COMMON_STATUS_H_
