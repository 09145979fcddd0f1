// Lightweight Status / Result error handling, modeled after the
// absl::Status / arrow::Result idiom. Library code in pmemolap does not throw
// exceptions; fallible operations return Status or Result<T>.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace pmemolap {

/// Error categories used across the library.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotFound,
  kAlreadyExists,
  kResourceExhausted,
  kFailedPrecondition,
  kInternal,
  /// Unrecoverable data corruption or loss (e.g. a poisoned PMEM line that
  /// survived retry, scrub, and failover).
  kDataLoss,
  /// Data is present but wrong: a CRC-verified structure (a guarded
  /// chunk) failed its checksum — torn writes and bit rot,
  /// distinct from kDataLoss's "the media cannot serve the bytes at all".
  kCorruption,
  /// The resource is temporarily unusable (e.g. a DIMM in a thermal
  /// throttle window, a degraded UPI link); retrying later may succeed.
  kUnavailable,
  /// The operation's deadline expired before it completed (a query
  /// cancelled between morsels; partial-progress stats accompany it).
  kDeadlineExceeded,
};

/// Returns a stable human-readable name for a StatusCode.
const char* StatusCodeName(StatusCode code);

/// A cheap, copyable success-or-error value.
///
/// The OK status carries no message and no allocation. Error statuses carry a
/// code and a message describing what went wrong.
///
/// [[nodiscard]]: silently dropping a Status hides failures the fault
/// path depends on. Route results through PMEMOLAP_RETURN_NOT_OK /
/// PMEMOLAP_ASSIGN_OR_RETURN; a genuinely ignorable call must cast to
/// void with a `// lint:allow(discarded-status): <reason>` comment.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with the given code and message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
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

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// A value-or-error wrapper. Holds either a T (status is OK) or an error
/// Status. Accessing the value of an errored Result aborts in debug builds.
/// [[nodiscard]] for the same reason as Status.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit from value: allows `return value;` in functions returning
  /// Result<T>.
  Result(T value) : value_(std::move(value)) {}

  /// Implicit from error status. The status must not be OK.
  Result(Status status) : status_(std::move(status)) {
    assert(!status_.ok() && "Result constructed from OK status without value");
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

  /// Returns the value, or `fallback` if this Result holds an error.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;  // OK iff value_ holds a value.
};

/// Propagates an error Status from an expression, mirroring
/// ARROW_RETURN_NOT_OK.
#define PMEMOLAP_RETURN_NOT_OK(expr)           \
  do {                                         \
    ::pmemolap::Status _st = (expr);           \
    if (!_st.ok()) return _st;                 \
  } while (false)

#define PMEMOLAP_CONCAT_INNER_(a, b) a##b
#define PMEMOLAP_CONCAT_(a, b) PMEMOLAP_CONCAT_INNER_(a, b)

/// Evaluates `rexpr` (a Result<T>); on error returns its Status (works in
/// functions returning Status or Result<U>), on success move-assigns the
/// value to `lhs`, which may declare a new variable:
///
///   PMEMOLAP_ASSIGN_OR_RETURN(Allocation region,
///                             space->Allocate(size, placement));
#define PMEMOLAP_ASSIGN_OR_RETURN(lhs, rexpr)                              \
  PMEMOLAP_ASSIGN_OR_RETURN_IMPL_(                                         \
      PMEMOLAP_CONCAT_(_pmemolap_result_, __LINE__), lhs, rexpr)
#define PMEMOLAP_ASSIGN_OR_RETURN_IMPL_(result, lhs, rexpr)                \
  auto result = (rexpr);                                                   \
  if (!result.ok()) return result.status();                                \
  lhs = std::move(result).value()

}  // namespace pmemolap
