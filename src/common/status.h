// Arrow-style Status / Result types used at fastft API boundaries.
//
// The library does not throw exceptions across its public API. Operations
// that can fail (parsing, shape mismatches, invalid configuration) return a
// `Status`, or a `Result<T>` when they also produce a value. Internal
// invariants are enforced with FASTFT_CHECK (see logging.h).

#pragma once

#include <string>
#include <utility>
#include <variant>

#include "common/logging.h"

namespace fastft {

/// Error category carried by a non-ok Status.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotFound,
  kIOError,
  kInternal,
};

/// Lightweight success-or-error value. Cheap to copy when ok.
///
/// [[nodiscard]] on the class makes every function returning a Status by
/// value warn (error under FASTFT_WERROR=ON) when the caller silently drops
/// it — the compiler-enforced half of the error-discipline contract that
/// tools/fastft_analyze.py checks semantically. Intentional drops are
/// spelled out: `(void)MaybeFlush();  // fastft-analyze: allow(discarded-status): why`.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
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
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable "CODE: message" string.
  std::string ToString() const {
    if (ok()) return "OK";
    const char* name = "Unknown";
    switch (code_) {
      case StatusCode::kOk: name = "OK"; break;
      case StatusCode::kInvalidArgument: name = "InvalidArgument"; break;
      case StatusCode::kOutOfRange: name = "OutOfRange"; break;
      case StatusCode::kNotFound: name = "NotFound"; break;
      case StatusCode::kIOError: name = "IOError"; break;
      case StatusCode::kInternal: name = "Internal"; break;
    }
    return std::string(name) + ": " + message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Value-or-Status. Mirrors arrow::Result: exactly one of the two is held.
/// [[nodiscard]] for the same reason as Status: a dropped Result is a
/// dropped error.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit from value / from error, mirroring arrow::Result ergonomics.
  Result(T value) : repr_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status)                          // NOLINT(runtime/explicit)
      : repr_(std::move(status)) {}

  bool ok() const { return std::holds_alternative<T>(repr_); }

  /// Status of the result; OK when a value is held.
  Status status() const {
    return ok() ? Status::OK() : std::get<Status>(repr_);
  }

  /// Requires ok(); aborts with the held error otherwise.
  const T& value() const& {
    CheckOk();
    return std::get<T>(repr_);
  }
  T& value() & {
    CheckOk();
    return std::get<T>(repr_);
  }
  T&& value() && {
    CheckOk();
    return std::get<T>(std::move(repr_));
  }

  /// Moves the value out; requires ok(); aborts with the held error
  /// otherwise.
  T ValueOrDie() && {
    CheckOk();
    return std::get<T>(std::move(repr_));
  }

 private:
  void CheckOk() const {
    FASTFT_CHECK(ok()) << "Result<> accessed without a value: "
                       << std::get<Status>(repr_).ToString();
  }

  std::variant<T, Status> repr_;
};

}  // namespace fastft

/// Propagates a non-ok Status to the caller.
#define FASTFT_RETURN_NOT_OK(expr)            \
  do {                                        \
    ::fastft::Status _st = (expr);            \
    if (!_st.ok()) return _st;                \
  } while (0)

#define FASTFT_STATUS_CONCAT_INNER_(a, b) a##b
#define FASTFT_STATUS_CONCAT_(a, b) FASTFT_STATUS_CONCAT_INNER_(a, b)

#define FASTFT_ASSIGN_OR_RETURN_IMPL_(result, lhs, expr) \
  auto result = (expr);                                  \
  if (!result.ok()) return result.status();              \
  lhs = std::move(result).ValueOrDie()

/// Evaluates `expr` (a Result<T>); on error returns its Status from the
/// enclosing function, otherwise moves the value into `lhs`:
///
///   FASTFT_ASSIGN_OR_RETURN(Dataset ds, ReadDatasetCsv(path, "y", task));
#define FASTFT_ASSIGN_OR_RETURN(lhs, expr)                                \
  FASTFT_ASSIGN_OR_RETURN_IMPL_(                                          \
      FASTFT_STATUS_CONCAT_(_fastft_result_or_, __LINE__), lhs, expr)

