// The tree's error taxonomy: one StatusCode per failure family, and typed
// exceptions carrying it, so the batch path can turn any scenario failure
// into a structured, machine-readable error record instead of aborting the
// whole batch.
//
// The hierarchy is compatibility-first: UsageError and ScenarioError derive
// std::invalid_argument (every pre-taxonomy call site threw that, and the
// pinned tests catch it), while the evaluation-time families — ModelError,
// SimBudgetError, DeadlineExceeded — derive std::runtime_error. All five mix
// in TypedError, so one dynamic_cast classifies any caught std::exception:
//
//   * kUsageError      — malformed invocation (bad flag, unreadable file);
//                        the CLI maps it to exit code 2;
//   * kScenarioError   — a scenario that cannot be evaluated as written
//                        (parse/validation failures, unknown keys, bad
//                        systems). Bare std::invalid_argument from the
//                        parsing layers classifies here too;
//   * kModelError      — the analytical model produced an unusable value
//                        (non-finite latency outside saturation, invalid
//                        operating point, non-convergent evaluation);
//   * kSimBudgetError  — a simulation exceeded its hard event budget
//                        (SimConfig::max_events);
//   * kDeadlineExceeded — a cooperative deadline (common/deadline.h) tripped
//                        mid-evaluation; partial progress is preserved;
//   * kOverloaded      — the evaluation server's admission control shed the
//                        request (pending queue full, or the server is
//                        draining); the work was never started and a client
//                        should back off and retry;
//   * kInternalError   — anything else (classification fallback only).
#pragma once

#include <cstdint>
#include <stdexcept>

namespace coc {

enum class StatusCode : std::uint8_t {
  kOk = 0,
  kUsageError,
  kScenarioError,
  kModelError,
  kSimBudgetError,
  kDeadlineExceeded,
  kOverloaded,
  kInternalError,
};

/// Stable wire spelling ("ok", "usage_error", ...) used in report JSON.
inline const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kUsageError: return "usage_error";
    case StatusCode::kScenarioError: return "scenario_error";
    case StatusCode::kModelError: return "model_error";
    case StatusCode::kSimBudgetError: return "sim_budget_error";
    case StatusCode::kDeadlineExceeded: return "deadline_exceeded";
    case StatusCode::kOverloaded: return "overloaded";
    case StatusCode::kInternalError: return "internal_error";
  }
  return "?";
}

/// Mixin interface marking an exception as carrying its own StatusCode.
/// Not an exception type itself — always paired with a std:: exception base.
class TypedError {
 public:
  virtual StatusCode code() const noexcept = 0;

 protected:
  ~TypedError() = default;
};

/// Malformed invocation (bad flag value, unreadable input file). The CLI
/// maps this to exit code 2, every other exception to exit 1.
class UsageError : public std::invalid_argument, public TypedError {
 public:
  using std::invalid_argument::invalid_argument;
  StatusCode code() const noexcept override { return StatusCode::kUsageError; }
};

/// A scenario that cannot be evaluated as written (validation failure,
/// unloadable system, injected parse fault).
class ScenarioError : public std::invalid_argument, public TypedError {
 public:
  using std::invalid_argument::invalid_argument;
  StatusCode code() const noexcept override {
    return StatusCode::kScenarioError;
  }
};

/// The analytical model produced an unusable value: a non-finite latency
/// outside certified saturation, an invalid operating point, or a
/// saturation search that did not converge.
class ModelError : public std::runtime_error, public TypedError {
 public:
  using std::runtime_error::runtime_error;
  StatusCode code() const noexcept override { return StatusCode::kModelError; }
};

/// A simulation run exceeded its hard event budget (SimConfig::max_events).
class SimBudgetError : public std::runtime_error, public TypedError {
 public:
  using std::runtime_error::runtime_error;
  StatusCode code() const noexcept override {
    return StatusCode::kSimBudgetError;
  }
};

/// A cooperative deadline tripped mid-evaluation (common/deadline.h); the
/// message names where, and batch reports keep any partial progress.
class DeadlineExceeded : public std::runtime_error, public TypedError {
 public:
  using std::runtime_error::runtime_error;
  StatusCode code() const noexcept override {
    return StatusCode::kDeadlineExceeded;
  }
};

/// The evaluation server's admission control shed this request before any
/// work started: the pending queue was full, or the server was draining.
/// Crosses the wire as a structured status record, never a torn connection.
class OverloadedError : public std::runtime_error, public TypedError {
 public:
  using std::runtime_error::runtime_error;
  StatusCode code() const noexcept override { return StatusCode::kOverloaded; }
};

/// Classifies any caught exception: typed errors report their own code;
/// bare std::invalid_argument (the parsing layers' native type) classifies
/// as a scenario error; everything else is internal.
inline StatusCode ErrorCodeOf(const std::exception& e) {
  if (const auto* typed = dynamic_cast<const TypedError*>(&e)) {
    return typed->code();
  }
  if (dynamic_cast<const std::invalid_argument*>(&e) != nullptr) {
    return StatusCode::kScenarioError;
  }
  return StatusCode::kInternalError;
}

}  // namespace coc
