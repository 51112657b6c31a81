// Minimal error-reporting vocabulary. The assembler and configuration layers
// report recoverable user errors through Status/Result; internal invariant
// violations use assertions. Every failure carries its FailureKind from the
// layer that detects it; no layer derives a kind from message text.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/types.hpp"

namespace sch {

/// What kind of failure stopped a run (a report's `failure.kind`). The
/// layer that detects a failure names its kind; api::Engine copies it.
enum class FailureKind : u8 {
  kNone,             // no failure
  kValidation,       // bad request/config/kernel or a program-level fault
  kBusError,         // access to unmapped memory on either engine
  kDeadlock,         // watchdog fired / ISS chain-FIFO underflow
  kLockstepMismatch, // ISS and cycle engine disagree on final state
  kGoldenMismatch,   // output region differs from the golden vector
  kBudgetExceeded,   // cycle, step or wall-clock budget exhausted
  kInternal,         // unexpected exception (engine bug; please report)
};

/// A recoverable error with a human-readable message and its kind.
class Status {
 public:
  Status() = default; // OK
  static Status ok() { return {}; }
  static Status error(std::string message,
                      FailureKind kind = FailureKind::kValidation) {
    Status s;
    s.message_ = std::move(message);
    s.kind_ = kind;
    return s;
  }

  [[nodiscard]] bool is_ok() const { return !message_.has_value(); }
  [[nodiscard]] const std::string& message() const {
    static const std::string kOk = "OK";
    return message_ ? *message_ : kOk;
  }
  /// kNone when OK.
  [[nodiscard]] FailureKind kind() const { return kind_; }

 private:
  std::optional<std::string> message_;
  FailureKind kind_ = FailureKind::kNone;
};

/// An access to unmapped memory (Memory::load/store/load_image).
class BusError : public std::out_of_range {
 public:
  using std::out_of_range::out_of_range;
};

/// Value-or-error. Accessing value() on an error throws; callers check ok().
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {} // NOLINT(google-explicit-constructor)
  Result(Status status) : status_(std::move(status)) { // NOLINT
    if (status_.is_ok()) {
      throw std::logic_error("Result constructed from OK status without value");
    }
  }

  [[nodiscard]] bool ok() const { return value_.has_value(); }
  [[nodiscard]] const Status& status() const { return status_; }
  [[nodiscard]] const T& value() const& {
    if (!value_) throw std::runtime_error("Result::value on error: " + status_.message());
    return *value_;
  }
  [[nodiscard]] T&& value() && {
    if (!value_) throw std::runtime_error("Result::value on error: " + status_.message());
    return std::move(*value_);
  }

 private:
  std::optional<T> value_;
  Status status_;
};

} // namespace sch
