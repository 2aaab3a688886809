// The traced run: a socket-free, single-threaded replay of the same seeded
// lines that times, per line, the public calls RequestHandler::HandleLine
// makes — Json::Parse -> ParseScenarios -> Scenario::Serialize ->
// ResultCache::GetOrCompute (Engine::EvaluateBatch and Report::ToJson
// inside a miss) -> response assembly -> JsonLine — against a second,
// untraced replay through plain HandleLine whose total the spans must add
// up to. On the replay's miss inputs it also times the layers below the
// Engine directly (system resolve, model compile/rebind/saturation/
// evaluate/bottleneck, sweep, simulator build/run), outside that sum.
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace servebench {

struct TraceResult {
  /// Per-layer metrics in output order.
  std::vector<Metric> metrics;
  /// Workload-shape checks that failed (empty when the shape holds).
  std::vector<std::string> shape_failures;
  /// Checks of the traced re-expression against plain HandleLine that
  /// failed: equal responses, and trace.coverage within 5% of 1. They judge
  /// the benchmark's copy of HandleLine, not the program, so the selftest
  /// requires them and a measured run only reports them.
  std::vector<std::string> trace_warnings;
};

/// Replays the warm-up plus the first measured lines of `gen` and returns
/// the per-layer metrics. Spans go to `spans_path` (Chrome trace-event
/// JSON) when it is non-empty.
TraceResult RunTrace(const Generator& gen, const std::string& spans_path);

}  // namespace servebench
