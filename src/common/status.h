// Status / StatusOr: lightweight, exception-free error propagation in the
// style of Arrow/RocksDB. All fallible library entry points return Status (or
// StatusOr<T> when they produce a value) instead of throwing.

#ifndef LTC_COMMON_STATUS_H_
#define LTC_COMMON_STATUS_H_

#include <cassert>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <variant>

namespace ltc {

/// Machine-readable category of a Status.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kFailedPrecondition = 4,
  kAlreadyExists = 5,
  kResourceExhausted = 6,
  kInternal = 7,
  kNotImplemented = 8,
  kIOError = 9,
  kUnavailable = 10,
};

/// Returns the canonical lowercase name for a code, e.g. "invalid-argument".
const char* StatusCodeName(StatusCode code);

/// \brief Result of an operation that can fail.
///
/// An OK status carries no allocation; error statuses carry a code and a
/// human-readable message. Statuses are cheap to move and to copy in the OK
/// case.
///
/// The class is [[nodiscard]]: a returned Status that nobody inspects is a
/// compile-time warning (-Werror in CI), because a silently dropped error is
/// exactly how a torn WAL or failed snapshot goes unnoticed until replay.
/// The rare intentional discard goes through LTC_IGNORE_STATUS so the
/// intent is visible at the call site and to tools/ltc_lint.py.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string msg);

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return rep_ == nullptr; }
  StatusCode code() const { return rep_ ? rep_->code : StatusCode::kOk; }
  /// Error message; empty for OK.
  const std::string& message() const;

  bool IsInvalidArgument() const { return code() == StatusCode::kInvalidArgument; }
  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsOutOfRange() const { return code() == StatusCode::kOutOfRange; }
  bool IsFailedPrecondition() const {
    return code() == StatusCode::kFailedPrecondition;
  }
  bool IsResourceExhausted() const {
    return code() == StatusCode::kResourceExhausted;
  }
  bool IsInternal() const { return code() == StatusCode::kInternal; }
  bool IsIOError() const { return code() == StatusCode::kIOError; }
  bool IsUnavailable() const { return code() == StatusCode::kUnavailable; }

  /// "OK" or "<code-name>: <message>".
  std::string ToString() const;

  /// Returns this status with `context` prepended to the message (no-op on OK).
  Status WithContext(const std::string& context) const;

  /// Aborts the process if not OK. Use in contexts where failure is a bug.
  void CheckOK() const;

 private:
  struct Rep {
    StatusCode code;
    std::string msg;
  };
  // nullptr <=> OK; keeps sizeof(Status) == sizeof(void*) and OK copies free.
  std::shared_ptr<const Rep> rep_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// \brief Either a value of type T or an error Status.
///
/// Typical use:
/// \code
///   StatusOr<int> r = Parse(s);
///   if (!r.ok()) return r.status();
///   Use(r.value());
/// \endcode
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  /// Implicit construction from a value (OK).
  StatusOr(T value) : var_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit construction from a non-OK status.
  StatusOr(Status status) : var_(std::move(status)) {  // NOLINT(runtime/explicit)
    assert(!std::get<Status>(var_).ok() && "StatusOr constructed from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(var_); }

  /// The status: OK if a value is held.
  Status status() const {
    return ok() ? Status::OK() : std::get<Status>(var_);
  }

  /// Precondition: ok().
  const T& value() const& {
    assert(ok());
    return std::get<T>(var_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(var_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(var_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value, or `fallback` when in error state.
  T value_or(T fallback) const {
    return ok() ? value() : std::move(fallback);
  }

 private:
  std::variant<Status, T> var_;
};

namespace status_internal {
template <typename T>
inline void IgnoreStatus(T&&) {}
}  // namespace status_internal

/// Explicitly discards a Status (or StatusOr) return value. The ONLY
/// sanctioned way to ignore one: it defeats [[nodiscard]] visibly, greps
/// cleanly, and every use should say in a comment why dropping the error is
/// sound (e.g. best-effort cleanup on an already-failing path).
#define LTC_IGNORE_STATUS(expr) ::ltc::status_internal::IgnoreStatus((expr))

/// Propagates a non-OK Status from the enclosing function.
#define LTC_RETURN_IF_ERROR(expr)                    \
  do {                                               \
    ::ltc::Status _ltc_status = (expr);              \
    if (!_ltc_status.ok()) return _ltc_status;       \
  } while (false)

#define LTC_CONCAT_IMPL(x, y) x##y
#define LTC_CONCAT(x, y) LTC_CONCAT_IMPL(x, y)

/// Evaluates a StatusOr expression; on error returns the Status, otherwise
/// move-assigns the value into `lhs` (which may include a declaration).
#define LTC_ASSIGN_OR_RETURN(lhs, expr)                                \
  auto LTC_CONCAT(_ltc_sor_, __LINE__) = (expr);                       \
  if (!LTC_CONCAT(_ltc_sor_, __LINE__).ok())                           \
    return LTC_CONCAT(_ltc_sor_, __LINE__).status();                   \
  lhs = std::move(LTC_CONCAT(_ltc_sor_, __LINE__)).value()

}  // namespace ltc

#endif  // LTC_COMMON_STATUS_H_
