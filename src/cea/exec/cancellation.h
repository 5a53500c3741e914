// Cooperative query cancellation and per-execution deadlines.
//
// A CancellationSource is owned by whoever controls a query's lifetime (a
// client thread, an admission layer, a test); CancellationToken is the
// cheap shared handle the execution layer polls. A token carries only
// explicit cancellation. The deadline belongs to one execution: the
// operator's QueryControl derives it from AggregationOptions::deadline
// when an Execute or a stream starts. Cancellation is purely cooperative:
// nothing is interrupted preemptively. The operator checks its
// QueryControl at morsel and SWC-flush boundaries inside a pass and at
// bucket-schedule points between passes, so a cancelled or
// deadline-expired query unwinds through the scheduler's existing Status
// error path within about one morsel's worth of work per worker, leaving
// the operator reusable.
//
// Cost model: an unarmed check is one flag test; an armed check is one
// acquire load of the token's flag, plus a steady_clock read only when
// the execution has a deadline. Checks run at morsel (tens of thousands of
// rows) granularity, never per row.

#ifndef CEA_EXEC_CANCELLATION_H_
#define CEA_EXEC_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "cea/common/status.h"

namespace cea {

namespace detail {

struct CancelState {
  std::atomic<bool> cancelled{false};
  std::mutex mutex;      // guards `reason` (written once, before the flag)
  std::string reason;
};

}  // namespace detail

inline constexpr int64_t kNoDeadlineNs = std::numeric_limits<int64_t>::max();

// Steady-clock now in ns since the clock's epoch, comparable with
// QueryControl's deadline.
inline int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Copyable, cheap handle to a CancellationSource. A default-constructed
// token is "null": never cancelled, one pointer test per check.
class CancellationToken {
 public:
  CancellationToken() = default;

  bool valid() const { return state_ != nullptr; }

  // True once Cancel() was called.
  bool cancelled() const {
    return state_ != nullptr &&
           state_->cancelled.load(std::memory_order_acquire);
  }

  // Ok, or kCancelled with the Cancel() reason.
  Status status() const {
    if (!cancelled()) return Status::Ok();
    std::lock_guard<std::mutex> lock(state_->mutex);
    return Status::Cancelled(state_->reason);
  }

 private:
  friend class CancellationSource;
  explicit CancellationToken(std::shared_ptr<detail::CancelState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::CancelState> state_;
};

// The controlling end: create one per query, hand token() to the operator
// (AggregationOptions::cancel_token), call Cancel() from any thread.
class CancellationSource {
 public:
  CancellationSource() : state_(std::make_shared<detail::CancelState>()) {}

  CancellationToken token() const { return CancellationToken(state_); }

  // Idempotent; the first call's reason sticks. Thread-safe.
  void Cancel(std::string reason = "query cancelled") {
    {
      std::lock_guard<std::mutex> lock(state_->mutex);
      if (state_->reason.empty()) state_->reason = std::move(reason);
    }
    state_->cancelled.store(true, std::memory_order_release);
  }

 private:
  std::shared_ptr<detail::CancelState> state_;
};

// Per-execution cancellation view: the caller's external token plus the
// absolute deadline derived from AggregationOptions::deadline at
// Execute/BeginStream time. The operator owns one and hands a pointer to
// every pass context and exact-fallback task. This is the only deadline:
// it lives here, not in the token, so one external token can fan out to
// queries with different time budgets.
class QueryControl {
 public:
  // Arms the control for one execution window. `budget` <= 0 means no
  // deadline.
  void Arm(CancellationToken token, std::chrono::nanoseconds budget) {
    token_ = std::move(token);
    deadline_ns_ =
        budget.count() > 0 ? SteadyNowNs() + budget.count() : kNoDeadlineNs;
    budget_ = budget;
    armed_ = token_.valid() || deadline_ns_ != kNoDeadlineNs;
  }

  void Disarm() {
    token_ = CancellationToken();
    deadline_ns_ = kNoDeadlineNs;
    armed_ = false;
  }

  // Ok, or the typed Status that must unwind this query.
  Status Check() const {
    if (!armed_) return Status::Ok();
    Status s = token_.status();
    if (!s.ok()) return s;
    if (deadline_ns_ != kNoDeadlineNs && SteadyNowNs() >= deadline_ns_) {
      return Status::DeadlineExceeded(
          "query deadline of " +
          std::to_string(
              std::chrono::duration_cast<std::chrono::milliseconds>(budget_)
                  .count()) +
          " ms exceeded");
    }
    return Status::Ok();
  }

  // Throws StatusError when the query must stop; the scheduler's error
  // path converts it back into the typed Status returned by WaitGroup().
  void ThrowIfCancelled() const {
    if (!armed_) return;
    Status s = Check();
    if (!s.ok()) throw StatusError(std::move(s));
  }

 private:
  CancellationToken token_;
  int64_t deadline_ns_ = kNoDeadlineNs;
  std::chrono::nanoseconds budget_{0};
  bool armed_ = false;
};

}  // namespace cea

#endif  // CEA_EXEC_CANCELLATION_H_
