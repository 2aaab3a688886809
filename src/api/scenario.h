// Scenario — the one value type that names a complete evaluation question:
// "given this system organization and this traffic scenario, run these
// analyses". It is the input half of the stable evaluation API (coc::Engine
// is the evaluator, coc::Report the output half); everything the CLI, the
// batch service path, and embedding code can ask for round-trips through it.
//
// A scenario is serializable text (INI-ish, same tokenizer as system config
// files) so batches of them live in files:
//
//   [scenario tiny-model]
//   system = preset:tiny:16:64        # config path or preset:... specifier
//   analyses = model,bottleneck       # model|bottleneck|saturation|sweep|sim
//   rate = 1e-4                       # operating point (model/bottleneck/sim)
//   icn2_topology = crossbar          # optional global-network override
//   workload.pattern = hotspot        # optional overlay on the system
//   workload.hotspot_fraction = 0.2   #   config's workload.* keys — same
//   workload.rate.3 = 2.5             #   keys, same semantics as the CLI's
//   workload.msg_len = bimodal:8,64,0.1  # workload flags
//   workload.arrival = mmpp:4,8       # poisson|mmpp:RATIO,BURSTLEN|trace:PATH
//   sweep.max_rate = 1e-3             # sweep analysis parameters
//   sweep.points = 8
//   sweep.sim = true
//   sim.messages = 20000              # sim analysis budget (measured window;
//   sim.seed = 1                      #   warmup/drain derive as N/10)
//   sim.condis = cut-through          # or store-forward
//   model.lambda_i2 = pair_mean       # ModelOptions knobs (all optional,
//   model.relaxing_factor = off       #   serialized only when non-default)
//
// Parse and Serialize are inverse up to canonicalization: Serialize emits a
// canonical key order and only non-default values, and
// Parse(Serialize(Parse(text))) == Parse(text) for every valid input (the
// round-trip property test pins this).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "model/model_options.h"
#include "sim/sim_config.h"
#include "topology/topology_spec.h"
#include "workload/workload.h"

namespace coc {

class SystemConfig;

/// The analyses an Engine can run for one scenario, as combinable bits.
enum class Analysis : std::uint8_t {
  kModel = 1 << 0,       ///< CompiledModel::Evaluate at `rate`
  kBottleneck = 1 << 1,  ///< CompiledModel::Bottleneck at `rate`
  kSaturation = 1 << 2,  ///< CompiledModel::SaturationRate
  kSweep = 1 << 3,       ///< rate sweep (model + optional sim per point)
  kSim = 1 << 4,         ///< one discrete-event simulation at `rate`
};

/// Canonical text name ("model", "bottleneck", "saturation", "sweep", "sim").
const char* AnalysisName(Analysis a);
/// Inverse of AnalysisName. Throws std::invalid_argument on unknown input.
Analysis ParseAnalysis(const std::string& name);

/// Field-wise workload overrides applied on top of the system config's
/// workload — the shared semantics behind both the CLI's workload flags and
/// a scenario's workload.* keys, including the flag-conflict guards (an
/// explicitly contradictory pattern is a hard error, never a silent
/// override) and the hotspot-node range check.
struct WorkloadOverlay {
  std::optional<WorkloadPattern> pattern;
  std::optional<double> locality;
  std::optional<double> hotspot_fraction;
  std::optional<std::int64_t> hotspot_node;
  std::optional<MessageLength> msg_len;
  /// Arrival process override (key `workload.arrival`, flag `--arrival`):
  /// poisson | mmpp:RATIO,BURSTLEN | trace:PATH.
  std::optional<ArrivalProcess> arrival;
  /// Sparse per-cluster rate multipliers (cluster index, scale); unnamed
  /// clusters keep scale 1. Non-empty replaces the base workload's table.
  std::vector<std::pair<int, double>> rate_scale;

  bool Empty() const {
    return !pattern && !locality && !hotspot_fraction && !hotspot_node &&
           !msg_len && !arrival && rate_scale.empty();
  }

  /// Applies the overlay to `base` and validates the result against `sys`.
  /// Throws std::invalid_argument with the CLI flag spellings on conflicts
  /// (the messages are pinned by cli_test).
  Workload ApplyTo(Workload base, const SystemConfig& sys) const;

  friend bool operator==(const WorkloadOverlay&,
                         const WorkloadOverlay&) = default;
};

/// One complete evaluation request.
struct Scenario {
  std::string name = "scenario";
  /// System organization: a config file path or "preset:..." specifier
  /// (exactly what the CLI's <system> argument accepts).
  std::string system;
  /// Optional override of the global network's topology (the CLI's
  /// --icn2-topology).
  std::optional<TopologySpec> icn2_override;
  /// Requested analyses (Analysis bits OR-ed together).
  std::uint8_t analyses = static_cast<std::uint8_t>(Analysis::kModel);
  /// Per-node generation rate lambda_g for model/bottleneck/sim analyses.
  double rate = 0;
  /// Cooperative wall-clock deadline for this scenario's evaluation, in
  /// milliseconds (key `deadline_ms`). Unset = no deadline. A trip surfaces
  /// as a DeadlineExceeded status record, never a torn batch.
  std::optional<double> deadline_ms;
  WorkloadOverlay workload;
  ModelOptions model;

  // Sweep analysis parameters.
  std::optional<double> sweep_max_rate;
  /// Rate-grid size (key `sweep.points`), in [1, kMaxSweepPoints]. The cap
  /// also bounds the CLI's workload-dial grids.
  int sweep_points = 8;
  static constexpr int kMaxSweepPoints = 1024;
  bool sweep_sim = true;
  /// Saturation cut-off for simulated sweep points (key
  /// `sweep.abort_latency`): once a point's mean latency exceeds this,
  /// later sim points are skipped. Must be > 0.
  double sim_abort_latency = 3000;

  // Sim analysis budget. Unset messages = the environment-controlled
  // DefaultSimBudget; set = that many measured messages with N/10
  // warmup/drain (the CLI's --messages).
  std::optional<std::int64_t> sim_messages;
  std::uint64_t sim_seed = 1;
  CondisMode condis = CondisMode::kCutThrough;
  /// Hard event budget per simulation run (key `sim.max_events`). Unset =
  /// unlimited; exceeding it surfaces as a SimBudgetError status record.
  std::optional<std::int64_t> sim_max_events;

  bool Has(Analysis a) const {
    return (analyses & static_cast<std::uint8_t>(a)) != 0;
  }
  Scenario& Request(Analysis a) {
    analyses |= static_cast<std::uint8_t>(a);
    return *this;
  }

  /// Structural validation (system present, analyses non-empty, rate
  /// positive where an analysis needs it, sweep parameters sane). Throws
  /// ScenarioError (an std::invalid_argument) naming the scenario.
  void Validate() const;

  /// Canonical text form: one [scenario name] section, fixed key order,
  /// defaults omitted. Round-trips through ParseScenarios.
  std::string Serialize() const;

  friend bool operator==(const Scenario&, const Scenario&) = default;
};

/// Parses a scenario batch file: one or more [scenario NAME] sections.
/// Unnamed sections get "scenario<index>" (1-based). Throws
/// std::invalid_argument with a line-numbered message on malformed input,
/// unknown keys, or an empty file.
std::vector<Scenario> ParseScenarios(const std::string& text);

/// Single-scenario convenience: the text must contain exactly one section.
Scenario ParseScenario(const std::string& text);

/// Reads a scenario batch file from disk. A missing or unreadable file
/// throws UsageError with the errno reason (the CLI maps it to exit 2).
std::vector<Scenario> LoadScenarios(const std::string& path);

}  // namespace coc
