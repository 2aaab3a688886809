// Cooperative per-scenario deadline, threaded through every long-running
// loop an evaluation can enter: the sim event loop, sweep points, and
// saturation-search probes. Each loop calls Check() at amortized cost (the
// sim strides it every few thousand events) and a tripped deadline throws
// DeadlineExceeded naming where it fired — the batch path turns that into a
// structured error record that keeps whatever analyses already completed.
//
// Two modes:
//   * After(ms) — wall-clock, measured against std::chrono::steady_clock.
//     Inherently nondeterministic; this is the user-facing --deadline-ms.
//   * TripAfterChecks(n) — fires on the (n+1)-th Check() call regardless of
//     wall time. Fault injection uses it so deadline behavior is exactly
//     reproducible in tests (bit-identical reports for any thread count).
//
// Copies share state: the check counter lives behind a shared_ptr, so one
// deadline handed to a SimConfig, a SweepSpec and a saturation search counts
// all their checks against one budget. Default-constructed deadlines never
// expire and cost one branch per Check.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"

namespace coc {

class Deadline {
 public:
  Deadline() = default;  ///< never expires

  /// Wall-clock deadline `ms` milliseconds from now. One past the clock's
  /// range never expires (a default Deadline) instead of overflowing.
  static Deadline After(double ms) {
    const auto now = Clock::now();
    const auto left = Clock::time_point::max() - now;
    const std::chrono::duration<double, Clock::period> wait =
        std::chrono::duration<double, std::milli>(std::max(ms, 0.0));
    if (!(wait.count() < static_cast<double>(left.count()))) return {};
    Deadline d;
    d.enabled_ = true;
    d.wall_deadline_ =
        now + std::min(left, Clock::duration(
                                 static_cast<Clock::rep>(wait.count())));
    return d;
  }

  /// Deterministic deadline: expires on the (checks+1)-th Check()/Expired()
  /// probe, independent of wall time. TripAfterChecks(0) trips immediately.
  static Deadline TripAfterChecks(std::int64_t checks) {
    Deadline d;
    d.enabled_ = true;
    d.checks_left_ = std::make_shared<std::atomic<std::int64_t>>(checks);
    return d;
  }

  bool Enabled() const { return enabled_; }

  /// One probe. In check-counting mode this consumes one check (copies
  /// share the counter); once expired, a deadline stays expired.
  bool Expired() const {
    if (!enabled_) return false;
    if (checks_left_) {
      return checks_left_->fetch_sub(1, std::memory_order_relaxed) <= 0;
    }
    return Clock::now() >= wall_deadline_;
  }

  /// Probes and throws DeadlineExceeded naming `where` (plus the caller's
  /// partial-progress note, when given) if the deadline has passed.
  void Check(const char* where, const std::string& progress = {}) const {
    if (!Expired()) return;
    std::string msg = "deadline exceeded during ";
    msg += where;
    if (!progress.empty()) {
      msg += " (";
      msg += progress;
      msg += ')';
    }
    throw DeadlineExceeded(msg);
  }

 private:
  using Clock = std::chrono::steady_clock;

  bool enabled_ = false;
  Clock::time_point wall_deadline_{};
  /// Check-counting mode when non-null; shared so copies spend one budget.
  std::shared_ptr<std::atomic<std::int64_t>> checks_left_;
};

}  // namespace coc
