// Sweep harness: evaluates the analytical model and (optionally) the
// simulator over a grid of traffic generation rates — the x-axis of every
// figure in the paper's evaluation.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "model/compiled_model.h"
#include "sim/coc_system_sim.h"
#include "sim/sim_config.h"
#include "system/system_config.h"

namespace coc {

/// One operating point of a sweep.
struct SweepPoint {
  double lambda_g = 0;
  double model_latency = 0;       ///< +inf past analytical saturation
  bool model_saturated = false;
  std::optional<double> sim_latency;  ///< empty if the sim was not run
  double sim_ci95 = 0;
  double sim_intra = 0;
  double sim_inter = 0;
  double sim_icn2_max_util = 0;
};

/// Sweep specification. The simulator phases/seed/C-D discipline come from
/// `sim_base` (its lambda_g and workload are overwritten per point).
struct SweepSpec {
  std::vector<double> rates;
  bool run_sim = true;
  SimConfig sim_base;
  ModelOptions model_opts;
  /// The traffic scenario, driving both the analytical model and every
  /// simulated point (single source of truth; sim_base.workload is ignored).
  Workload workload;
  /// Once a simulated point's mean latency exceeds this, later sim points
  /// are skipped (the run is saturated and each further point costs the
  /// same wall time for no information). 0 disables the cut-off.
  double sim_abort_latency = 0;
  /// Cooperative deadline, probed before every point's model evaluation and
  /// simulation, inside the compile and each evaluation, and inside each
  /// simulated point via sim_base.deadline when the caller shares one. A
  /// trip throws DeadlineExceeded with the completed-point count.
  Deadline deadline;
};

/// Evenly spaced rate grid (count points over (0, max], excluding 0).
std::vector<double> LinearRates(double max, int count);

/// Runs the sweep on `model`, compiled for spec.workload and
/// spec.model_opts (the Engine passes its memoized model); points come back
/// in rate order. Simulation points are independent (CocSystemSim::Run is
/// const and self-contained), so they are distributed over `threads` workers
/// (<= 1: the calling thread) with bit-identical results for any count. Past
/// the sim_abort_latency cut-off later points report no simulation; with
/// several workers such a point may already have run (its result is
/// dropped), so the cut-off saves less time.
std::vector<SweepPoint> RunSweepParallel(const CompiledModel& model,
                                         const SweepSpec& spec,
                                         int threads = 1);
/// The same sweep on a model compiled here, under spec.deadline.
std::vector<SweepPoint> RunSweepParallel(const SystemConfig& sys,
                                         const SweepSpec& spec,
                                         int threads = 1);

/// Renders a sweep as an aligned table. `label` names the system/message
/// configuration in the header line.
std::string FormatSweepTable(const std::string& label,
                             const std::vector<SweepPoint>& points);

/// Renders model + simulation series as an ASCII chart (finite points only).
std::string FormatSweepPlot(const std::string& title,
                            const std::vector<SweepPoint>& points);

/// One point of a workload-dial sweep: the full rate grid evaluated under
/// one dial setting, plus the certified saturation search's outcome.
struct WorkloadGridPoint {
  double dial_value = 0;
  std::vector<ModelResult> results;  ///< one per WorkloadGridSpec::rates
  double saturation_rate = 0;
  /// Model evaluations the saturation search spent at this point.
  int saturation_probes = 0;
  CompiledModel::RebindStats rebind;  ///< structure reuse at this point
};

/// Workload-dial sweep specification: walk `dial` over `values` (each move
/// applied to `base` via ApplyWorkloadDial), evaluating the `rates` grid and
/// the saturation rate at every setting (searched up to lambda_g = 1 to a
/// relative tolerance of 1e-3, as the Engine does). Model-only — the x-axis
/// is the workload, not the rate, so simulation budgets don't fit the loop.
struct WorkloadGridSpec {
  Workload base;
  WorkloadDial dial = WorkloadDial::kLocality;
  std::vector<double> values;
  int rate_scale_cluster = 0;  ///< which cluster the kRateScale dial moves
  std::vector<double> rates;
  ModelOptions model_opts;
  /// Probed before every dial point and inside each saturation search. A
  /// trip throws DeadlineExceeded with the completed-point count.
  Deadline deadline;
};

/// Runs the dial sweep. The first point compiles cold; every later point
/// rebinds the previous point's compiled structure (CompiledModel::Rebind)
/// and runs its own saturation search. Results are bit-identical to
/// compiling and searching each point cold (pinned by
/// tests/harness_test.cc).
std::vector<WorkloadGridPoint> RunWorkloadGrid(const SystemConfig& sys,
                                               const WorkloadGridSpec& spec);

/// Renders a dial sweep as an aligned table: one row per dial value with
/// the saturation rate, probe count, reused-class counts, and the mean
/// latency at each rate ("sat" past analytical saturation).
std::string FormatWorkloadGridTable(const std::string& label,
                                    const WorkloadGridSpec& spec,
                                    const std::vector<WorkloadGridPoint>& points);

/// Renders a dial sweep as CSV in long form: one row per (dial value,
/// rate) pair plus the point's saturation columns.
std::string FormatWorkloadGridCsv(const WorkloadGridSpec& spec,
                                  const std::vector<WorkloadGridPoint>& points);

/// Renders a sweep as CSV (same columns as FormatSweepTable). This is the
/// one sweep-CSV projection in the tree: the api layer's Report --format csv
/// output (coc::SweepCsv) delegates here, and the cells render through
/// Table::ToCsv like every other CSV artifact.
std::string FormatSweepCsv(const std::vector<SweepPoint>& points);

/// Writes `csv` to $COC_CSV_DIR/<name>.csv when that environment variable is
/// set; returns the path written to, or an empty string when disabled. A
/// failed write (unwritable directory, bad path) warns on stderr with the
/// errno reason instead of failing silently, and still returns "".
std::string MaybeWriteCsv(const std::string& name, const std::string& csv);

/// Environment-controlled simulation budget: the paper-faithful
/// 10k/100k/10k protocol when COC_FULL=1, a CI-friendly 2k/20k/2k otherwise.
SimConfig DefaultSimBudget(double lambda_g = 1e-4);

}  // namespace coc
