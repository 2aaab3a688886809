// Deterministic fault injection for the batch evaluation path. An armed
// injector makes scenario k fail in a chosen, exactly-reproducible way, so
// tests (tests/fault_injection_test.cc) and chaos drills can prove the
// isolation contract: the batch returns all N entries, the faulted entry
// carries a structured error, and the other N-1 reports are bit-identical
// to an un-faulted run for any thread count.
//
// Sites (each indexed by the scenario's position in the batch):
//   * parse      — the scenario fails before evaluation (ScenarioError);
//   * model      — the model's point evaluation is poisoned with a
//                  non-finite latency, which the Engine's consistency check
//                  turns into a ModelError record;
//   * sim_budget — the scenario's simulation budget is clamped to a few
//                  events, forcing SimBudgetError;
//   * deadline   — the scenario runs under Deadline::TripAfterChecks(0), so
//                  the first cooperative check throws DeadlineExceeded.
//   * server     — indexed by the evaluation server's admitted-request
//                  sequence number instead of a batch position: request k
//                  answers with a structured internal_error before touching
//                  the Engine or the result cache, proving request isolation
//                  the same way the batch sites prove scenario isolation.
//
// Spec grammar: "site:index[,site:index...]", e.g. "model:1,deadline:3".
// The CLI arms it from $COC_FAULT; the Engine takes it via BatchOptions.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace coc {

class FaultInjector {
 public:
  enum class Site : std::uint8_t {
    kParse,
    kModel,
    kSimBudget,
    kDeadline,
    kServer,
  };

  FaultInjector() = default;  ///< disarmed

  /// Parses a "site:index[,...]" spec. Throws UsageError on malformed specs
  /// (unknown site names, non-numeric or negative indices).
  static FaultInjector Parse(const std::string& spec);

  /// Arms from $COC_FAULT; disarmed when the variable is unset or empty.
  static FaultInjector FromEnv();

  bool Armed(Site site, int scenario_index) const;
  bool Empty() const { return arms_.empty(); }

 private:
  std::vector<std::pair<Site, int>> arms_;
};

/// Stable spec spelling ("parse", "model", "sim_budget", "deadline",
/// "server").
const char* FaultSiteName(FaultInjector::Site site);

}  // namespace coc
