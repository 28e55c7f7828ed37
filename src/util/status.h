// Status / Result error handling, following the Arrow/RocksDB idiom:
// no exceptions cross public API boundaries.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <variant>

namespace shapestats {

/// Coarse error category carried by a Status.
enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument,
  kParseError,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kIOError,
  kUnsupported,
  kInternal,
  /// A limit (timeout, row cap, cancellation) stopped the work before it
  /// had an answer.
  kAborted,
};

/// Returns a human-readable name for a StatusCode ("Ok", "ParseError", ...).
const char* StatusCodeName(StatusCode code);

/// Outcome of an operation that can fail. Cheap to copy when OK
/// (no allocation on the success path).
class Status {
 public:
  Status() = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "Ok" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  Status(StatusCode code, std::string msg) : code_(code), message_(std::move(msg)) {}

  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// A value or an error Status. Accessing the value of a failed Result aborts,
/// so callers must check ok() (or use ASSIGN_OR_RETURN).
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : status_(std::move(status)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    AbortIfNotOk();
    return *value_;
  }
  T& value() & {
    AbortIfNotOk();
    return *value_;
  }
  T&& value() && {
    AbortIfNotOk();
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the contained value, or `alt` if this Result holds an error.
  T value_or(T alt) const& { return ok() ? *value_ : std::move(alt); }

 private:
  void AbortIfNotOk() const;

  Status status_;
  std::optional<T> value_;
};

[[noreturn]] void AbortWithStatus(const Status& status);

template <typename T>
void Result<T>::AbortIfNotOk() const {
  if (!ok()) AbortWithStatus(status_);
}

}  // namespace shapestats

/// Propagates a non-OK Status from an expression to the caller.
#define RETURN_NOT_OK(expr)                    \
  do {                                         \
    ::shapestats::Status _st = (expr);         \
    if (!_st.ok()) return _st;                 \
  } while (0)

#define SHAPESTATS_CONCAT_INNER(a, b) a##b
#define SHAPESTATS_CONCAT(a, b) SHAPESTATS_CONCAT_INNER(a, b)

/// Evaluates a Result<T> expression; on error returns the Status, otherwise
/// binds the value to `lhs` (which may include a declaration).
#define ASSIGN_OR_RETURN(lhs, rexpr)                                     \
  auto SHAPESTATS_CONCAT(_res_, __LINE__) = (rexpr);                     \
  if (!SHAPESTATS_CONCAT(_res_, __LINE__).ok())                          \
    return SHAPESTATS_CONCAT(_res_, __LINE__).status();                  \
  lhs = std::move(SHAPESTATS_CONCAT(_res_, __LINE__)).value()
