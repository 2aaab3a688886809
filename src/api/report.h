// Report — the structured output half of the evaluation API. One Report per
// Scenario, holding the typed results of every requested analysis plus the
// system/workload summary, with a versioned JSON emitter (schema_version,
// stable key order — insertion-ordered, so goldens are byte-stable) and the
// CSV projections the CLI's --format csv exposes.
//
// Schema versioning: kReportSchemaVersion bumps on any key rename/removal or
// semantic change of an existing field; adding new keys is backward
// compatible and does not bump. Consumers should ignore unknown keys.
//
// v2 (from v1): every report carries a "status" block (code/ok, plus the
// error message when not ok), and non-finite doubles emit an explicit
// "<key>_nonfinite" sentinel next to the null (v1 emitted a bare null,
// indistinguishable from a missing measurement).
// v3 (from v2): the status block lost "degraded"/"degraded_note". The
// compiled model has no fallback implementation any more; a model failure
// is a model_error record.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "harness/sweep.h"
#include "model/compiled_model.h"

namespace coc {

inline constexpr int kReportSchemaVersion = 3;

/// Outcome of one scenario's evaluation. A batch report always carries one:
/// code == kOk for a complete result, anything else for a structured
/// failure whose partial results are still in the report.
struct ReportStatus {
  StatusCode code = StatusCode::kOk;
  std::string message;  ///< the error's what(); empty when ok

  bool ok() const { return code == StatusCode::kOk; }
};

/// CompiledModel::Evaluate at one operating point.
struct ModelAnalysisResult {
  double rate = 0;
  ModelResult result;
  double saturation_rate = 0;  ///< SaturationRate(1.0)
  std::string note;            ///< ModelApproximationNote; empty if none
};

/// CompiledModel::Bottleneck at one operating point.
struct BottleneckAnalysisResult {
  double rate = 0;
  BottleneckReport report;
  bool destination_skewed = false;  ///< hot-node ejection row applies
  double saturation_rate = 0;
  std::string note;
};

/// One discrete-event simulation run, summarized (the full SimResult's
/// RunningStats do not serialize; these are the fields every consumer reads).
struct SimAnalysisResult {
  double rate = 0;
  std::uint64_t seed = 1;
  std::int64_t delivered = 0;
  double duration = 0;  ///< simulated microseconds
  double mean = 0, ci95 = 0, min = 0, max = 0;  ///< measured-window latency
  double intra_mean = 0;
  std::int64_t intra_count = 0;
  double inter_mean = 0;
  std::int64_t inter_count = 0;
  double icn1_mean = 0, icn1_max = 0;  ///< utilization over the whole run
  double ecn1_mean = 0, ecn1_max = 0;
  double icn2_mean = 0, icn2_max = 0;
};

/// Rate sweep: the harness's points, verbatim.
struct SweepAnalysisResult {
  std::vector<SweepPoint> points;
};

/// The evaluation result tree for one scenario.
struct Report {
  std::string scenario;     ///< Scenario::name
  std::string system_spec;  ///< Scenario::system as given
  ReportStatus status;      ///< evaluation outcome (kOk unless isolated)
  // System summary (mirrors `coc_cli info`'s header line).
  int clusters = 0;
  std::int64_t nodes = 0;
  int m = 0;
  std::string icn2_topology;
  bool icn2_exact_fit = true;
  int message_flits = 0;
  double flit_bytes = 0;
  std::string workload;  ///< resolved Workload::Describe()

  std::optional<ModelAnalysisResult> model;
  std::optional<BottleneckAnalysisResult> bottleneck;
  std::optional<double> saturation_rate;  ///< the saturation analysis
  std::optional<SweepAnalysisResult> sweep;
  std::optional<SimAnalysisResult> sim;

  /// The versioned compact JSON, written with no tree ("schema_version"
  /// first, then summary, then one key per present analysis, in the
  /// canonical model/bottleneck/saturation/sweep/sim order).
  std::string ToJsonText() const;
  /// Json::Parse(ToJsonText()): its Dump() is those bytes. It costs a parse
  /// on top of the render, so the server caches ToJsonText() instead.
  Json ToJson() const;
};

/// Wraps per-scenario reports in the batch envelope:
/// {"schema_version": .., "reports": [..]}.
Json BatchToJson(const std::vector<Report>& reports);

/// CSV projections (Table::ToCsv under the hood — the tree's one CSV
/// serializer). The sweep projection shares FormatSweepCsv's columns.
std::string ModelCsv(const ModelAnalysisResult& model);
std::string BottleneckCsv(const BottleneckAnalysisResult& bottleneck);
std::string SimCsv(const SimAnalysisResult& sim);
std::string SweepCsv(const SweepAnalysisResult& sweep);
/// One row per report — scenario, status, and each analysis' headline
/// number (blank when the analysis was not requested). `coc_cli batch
/// --format csv`'s projection.
std::string BatchCsv(const std::vector<Report>& reports);

}  // namespace coc
