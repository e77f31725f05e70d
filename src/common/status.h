#ifndef DINOMO_COMMON_STATUS_H_
#define DINOMO_COMMON_STATUS_H_

#include <cassert>
#include <string>
#include <utility>

namespace dinomo {

/// Error-code based status, modeled after the RocksDB / Arrow idiom.
/// Functions that can fail return a Status (or Result<T>); exceptions are
/// not used on any hot path.
class Status {
 public:
  enum class Code : unsigned char {
    kOk = 0,
    kNotFound = 1,
    kInvalidArgument = 2,
    kCorruption = 3,
    kIoError = 4,
    kNotSupported = 5,
    kBusy = 6,
    kTimedOut = 7,
    kUnavailable = 8,
    kOutOfMemory = 9,
    kWrongOwner = 10,
    kAborted = 11,
    kDeadlineExceeded = 12,
  };

  /// Constructs an OK status.
  Status() : code_(Code::kOk) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status Ok() { return Status(); }
  static Status NotFound(std::string msg = "") {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status InvalidArgument(std::string msg = "") {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status Corruption(std::string msg = "") {
    return Status(Code::kCorruption, std::move(msg));
  }
  static Status IoError(std::string msg = "") {
    return Status(Code::kIoError, std::move(msg));
  }
  static Status NotSupported(std::string msg = "") {
    return Status(Code::kNotSupported, std::move(msg));
  }
  static Status Busy(std::string msg = "") {
    return Status(Code::kBusy, std::move(msg));
  }
  static Status TimedOut(std::string msg = "") {
    return Status(Code::kTimedOut, std::move(msg));
  }
  static Status Unavailable(std::string msg = "") {
    return Status(Code::kUnavailable, std::move(msg));
  }
  static Status OutOfMemory(std::string msg = "") {
    return Status(Code::kOutOfMemory, std::move(msg));
  }
  /// The contacted KVS node does not own the requested key range; the
  /// client must refresh its routing information (paper §3.4).
  static Status WrongOwner(std::string msg = "") {
    return Status(Code::kWrongOwner, std::move(msg));
  }
  static Status Aborted(std::string msg = "") {
    return Status(Code::kAborted, std::move(msg));
  }
  /// The operation's deadline elapsed before it could complete. Unlike
  /// TimedOut (a single RPC timing out, retryable), this is terminal for
  /// the request: the caller's overall time budget is spent (§5.3:
  /// "user requests are set to time out after 500ms").
  static Status DeadlineExceeded(std::string msg = "") {
    return Status(Code::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsIoError() const { return code_ == Code::kIoError; }
  bool IsNotSupported() const { return code_ == Code::kNotSupported; }
  bool IsBusy() const { return code_ == Code::kBusy; }
  bool IsTimedOut() const { return code_ == Code::kTimedOut; }
  bool IsUnavailable() const { return code_ == Code::kUnavailable; }
  bool IsOutOfMemory() const { return code_ == Code::kOutOfMemory; }
  bool IsWrongOwner() const { return code_ == Code::kWrongOwner; }
  bool IsAborted() const { return code_ == Code::kAborted; }
  bool IsDeadlineExceeded() const {
    return code_ == Code::kDeadlineExceeded;
  }

  Code code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// Human-readable rendering, e.g. "NotFound: key 42".
  std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  Status(Code code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  Code code_;
  std::string msg_;
};

/// A value-or-error holder: either an OK status plus a T, or an error status.
template <typename T>
class Result {
 public:
  /// Implicit from a value: the common success path.
  Result(T value) : status_(), value_(std::move(value)) {}  // NOLINT
  /// Implicit from an error status. Must not be OK.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok());
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return value_;
  }
  T& value() & {
    assert(ok());
    return value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value if OK, otherwise the provided default.
  T value_or(T fallback) const {
    return ok() ? value_ : std::move(fallback);
  }

 private:
  Status status_;
  T value_{};
};

/// The status of a Status or a Result, for code generic over both.
inline const Status& GetStatus(const Status& s) { return s; }
template <typename T>
const Status& GetStatus(const Result<T>& r) {
  return r.status();
}

/// Propagates a non-OK status to the caller.
#define DINOMO_RETURN_IF_ERROR(expr)          \
  do {                                        \
    ::dinomo::Status _st = (expr);            \
    if (!_st.ok()) return _st;                \
  } while (0)

}  // namespace dinomo

#endif  // DINOMO_COMMON_STATUS_H_
