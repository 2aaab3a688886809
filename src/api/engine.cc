#include "api/engine.h"

#include <cmath>
#include <exception>
#include <limits>
#include <utility>

#include "common/json.h"
#include "common/parallel_for.h"
#include "common/status.h"
#include "harness/sweep.h"

namespace coc {
namespace {

/// Cache key of a (system spec, ICN2 override) pair. '\x1f' (ASCII unit
/// separator) cannot appear in specs, so the concatenation is injective.
std::string SystemKey(const Scenario& s) {
  std::string key = s.system;
  key += '\x1f';
  if (s.icn2_override) key += s.icn2_override->ToString();
  return key;
}

/// Canonical dump of a resolved Workload, injective over its semantics: an
/// explicit all-1.0 rate_scale table is the same traffic as an empty one
/// (Workload::RateScale returns the same doubles), so both spell the same
/// key bytes and share one cache entry.
std::string WorkloadKey(const Workload& w) {
  std::string key = WorkloadPatternName(w.pattern);
  key += '\x1f';
  key += JsonNumber(w.locality_fraction);
  key += '\x1f';
  key += JsonNumber(w.hotspot_fraction);
  key += '\x1f';
  key += std::to_string(w.hotspot_node);
  key += '\x1f';
  if (!w.uniform_rates()) {
    for (const double s : w.rate_scale) {
      key += JsonNumber(s);
      key += ',';
    }
  }
  key += '\x1f';
  key += w.message_length.ToString();
  key += '\x1f';
  key += w.arrival.ToString();
  return key;
}

/// The sim budget a scenario asks for: the environment-controlled default,
/// with the scenario's overrides applied the way the CLI's flags are.
SimConfig ScenarioSimBudget(const Scenario& s, double lambda_g) {
  SimConfig cfg = DefaultSimBudget(lambda_g);
  cfg.seed = s.sim_seed;
  if (s.sim_messages) {
    cfg.measured_messages = *s.sim_messages;
    cfg.warmup_messages = cfg.measured_messages / 10;
    cfg.drain_messages = cfg.measured_messages / 10;
  }
  cfg.condis_mode = s.condis;
  if (s.sim_max_events) cfg.max_events = *s.sim_max_events;
  return cfg;
}

/// The deadline governing one scenario's evaluation. An armed deadline
/// fault trips deterministically on the first check, independent of wall
/// time, so injected DeadlineExceeded records are bit-identical across
/// runs and thread counts.
Deadline ScenarioDeadline(const Scenario& s, int index,
                          const Engine::BatchOptions& opts) {
  if (opts.faults.Armed(FaultInjector::Site::kDeadline, index)) {
    return Deadline::TripAfterChecks(0);
  }
  if (s.deadline_ms) return Deadline::After(*s.deadline_ms);
  if (opts.default_deadline_ms) return Deadline::After(*opts.default_deadline_ms);
  return Deadline();
}

}  // namespace

// The cache getters construct outside the lock so a cache miss (file I/O,
// topology/simulator/model construction — the expensive part of a cold
// batch) never serializes other workers; on a racing double-build the first
// insert wins and the duplicate is dropped.

std::shared_ptr<Engine::SystemEntry> Engine::GetSystem(
    const Scenario& scenario) {
  std::string key = SystemKey(scenario);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const auto* hit = systems_.Find(key)) return *hit;
  }
  auto entry = std::make_shared<SystemEntry>(LoadExperiment(scenario.system));
  if (scenario.icn2_override) {
    entry->experiment.system =
        entry->experiment.system.WithIcn2Topology(*scenario.icn2_override);
  }
  std::lock_guard<std::mutex> lock(mu_);
  return systems_.Insert(std::move(key), std::move(entry));
}

std::shared_ptr<const CocSystemSim> Engine::GetSim(
    const std::shared_ptr<SystemEntry>& entry) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (entry->sim) return entry->sim;
  }
  auto sim = std::make_shared<const CocSystemSim>(entry->experiment.system);
  std::lock_guard<std::mutex> lock(mu_);
  if (!entry->sim) entry->sim = std::move(sim);
  return entry->sim;
}

std::shared_ptr<Engine::ModelEntry> Engine::GetModel(
    const std::string& system_key, const SystemEntry& entry,
    const Workload& workload, const ModelOptions& opts,
    const Deadline* deadline) {
  std::string family_key = system_key;
  family_key += '\x1e';
  PrintModelKeys(opts, family_key);
  std::string key = family_key;
  key += '\x1e';
  key += WorkloadKey(workload);
  std::shared_ptr<const CompiledModel> sibling;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const auto* hit = models_.Find(key)) return *hit;
    // The lookup touches the family, so hot families survive a batch that
    // also visits many one-off ones.
    if (const auto* source = rebind_sources_.Find(family_key)) {
      sibling = *source;
    }
  }
  // A miss with a compiled sibling on the same (system, options) family
  // rebinds from it — bit-identical to a cold compile, but the dedup
  // tables, combo arrays, and ICN2 census carry over.
  std::shared_ptr<const CompiledModel> model;
  if (sibling) {
    model = std::make_shared<const CompiledModel>(
        sibling->Rebind(workload, deadline));
  } else {
    model = std::make_shared<const CompiledModel>(entry.experiment.system,
                                                  workload, opts, deadline);
  }
  auto mentry = std::make_shared<ModelEntry>(std::move(model));
  std::lock_guard<std::mutex> lock(mu_);
  if (sibling) ++model_rebinds_;
  if (auto* source = rebind_sources_.Find(family_key)) {
    *source = mentry->model;  // refresh (a racing worker may have inserted)
  } else {
    rebind_sources_.Insert(std::move(family_key), mentry->model);
  }
  // A racing worker may have compiled the same model first; its insert wins.
  return models_.Insert(std::move(key), std::move(mentry));
}

double Engine::GetSaturationRate(const std::shared_ptr<ModelEntry>& entry,
                                 const Deadline* deadline) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (entry->saturation_rate) return *entry->saturation_rate;
  }
  int probes = 0;
  const double rate =
      entry->model->SaturationRate(1.0, 1e-3, deadline, &probes);
  std::lock_guard<std::mutex> lock(mu_);
  ++saturation_searches_;
  saturation_probes_ += static_cast<std::size_t>(probes);
  if (std::isnan(rate)) {
    // +inf is a certified "never saturates"; NaN means the search lost its
    // bracket.
    throw ModelError("saturation search did not converge (returned NaN)");
  }
  // Cache only a successful search: a deadline trip above threw before this
  // point, so a faulted scenario cannot poison the shared entry.
  if (!entry->saturation_rate) entry->saturation_rate = rate;
  return *entry->saturation_rate;
}

Engine::CacheStats Engine::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats stats;
  stats.systems = systems_.size();
  for (const auto& [key, entry] : systems_) {
    if (entry->sim) ++stats.sims;
  }
  stats.models = models_.size();
  stats.model_rebinds = model_rebinds_;
  stats.rebind_evictions = rebind_sources_.evictions();
  stats.model_evictions = models_.evictions();
  stats.system_evictions = systems_.evictions();
  stats.saturation_searches = saturation_searches_;
  stats.saturation_probes = saturation_probes_;
  return stats;
}

void Engine::EvaluateInto(const Scenario& scenario, int scenario_index,
                          const BatchOptions& opts, SimScratch& scratch,
                          int sweep_threads, Report& report) {
  // Identify the report before anything can throw, so an error record still
  // names its scenario.
  report.scenario = scenario.name;
  report.system_spec = scenario.system;
  if (opts.faults.Armed(FaultInjector::Site::kParse, scenario_index)) {
    throw ScenarioError("scenario '" + scenario.name +
                        "': injected parse fault (site parse, index " +
                        std::to_string(scenario_index) + ")");
  }
  scenario.Validate();
  const Deadline deadline = ScenarioDeadline(scenario, scenario_index, opts);
  const bool sim_budget_fault =
      opts.faults.Armed(FaultInjector::Site::kSimBudget, scenario_index);
  const auto entry = GetSystem(scenario);
  const SystemConfig& sys = entry->experiment.system;
  const Workload workload =
      scenario.workload.ApplyTo(entry->experiment.workload, sys);

  report.clusters = sys.num_clusters();
  report.nodes = sys.TotalNodes();
  report.m = sys.m();
  report.icn2_topology = sys.icn2_topology().Name();
  report.icn2_exact_fit = sys.icn2_exact_fit();
  report.message_flits = sys.message().length_flits;
  report.flit_bytes = sys.message().flit_bytes;
  report.workload = workload.Describe();

  const char* note = workload.ModelApproximationNote();
  const Deadline* model_deadline = deadline.Enabled() ? &deadline : nullptr;
  std::shared_ptr<ModelEntry> mentry;
  std::shared_ptr<const CompiledModel> model;
  double saturation_rate = 0;
  if (scenario.Has(Analysis::kModel) || scenario.Has(Analysis::kBottleneck) ||
      scenario.Has(Analysis::kSaturation)) {
    deadline.Check("model compilation");
    mentry = GetModel(SystemKey(scenario), *entry, workload, scenario.model,
                      model_deadline);
    model = mentry->model;
    // One bisection serves every analysis that reports the saturation point,
    // and the result is cached on the model entry, so scenarios sharing a
    // model (batch sweeps over the rate dial) run the search exactly once.
    saturation_rate = GetSaturationRate(mentry, model_deadline);
  }

  if (scenario.Has(Analysis::kModel)) {
    deadline.Check("model evaluation");
    ModelAnalysisResult a;
    a.rate = scenario.rate;
    a.result = model->Evaluate(scenario.rate, model_deadline);
    if (opts.faults.Armed(FaultInjector::Site::kModel, scenario_index)) {
      // Poison this result copy only — the shared CompiledModel is
      // untouched, so other scenarios on the same model are unaffected.
      a.result.mean_latency = std::numeric_limits<double>::quiet_NaN();
      a.result.saturated = false;
    }
    if (!std::isfinite(a.result.mean_latency) && !a.result.saturated) {
      // Non-finite without the saturated flag is a model inconsistency
      // (+inf with the flag is legitimate saturation).
      throw ModelError(
          "model evaluation returned non-finite latency without saturation");
    }
    a.saturation_rate = saturation_rate;
    if (note != nullptr) a.note = note;
    report.model = std::move(a);
  }
  if (scenario.Has(Analysis::kBottleneck)) {
    deadline.Check("bottleneck analysis");
    BottleneckAnalysisResult a;
    a.rate = scenario.rate;
    a.report = model->Bottleneck(scenario.rate, model_deadline);
    a.destination_skewed = workload.DestinationSkewed();
    a.saturation_rate = saturation_rate;
    if (note != nullptr) a.note = note;
    report.bottleneck = std::move(a);
  }
  if (scenario.Has(Analysis::kSaturation)) {
    report.saturation_rate = saturation_rate;
  }
  if (scenario.Has(Analysis::kSweep)) {
    deadline.Check("sweep analysis");
    SweepSpec spec;
    spec.rates = LinearRates(*scenario.sweep_max_rate, scenario.sweep_points);
    spec.run_sim = scenario.sweep_sim;
    spec.sim_base = ScenarioSimBudget(scenario, /*lambda_g=*/1e-4);
    if (sim_budget_fault) spec.sim_base.max_events = 64;
    spec.sim_base.deadline = deadline;
    spec.model_opts = scenario.model;
    spec.workload = workload;
    spec.sim_abort_latency = scenario.sim_abort_latency;
    spec.deadline = deadline;
    SweepAnalysisResult a;
    a.points = RunSweepParallel(sys, spec, sweep_threads);
    report.sweep = std::move(a);
  }
  if (scenario.Has(Analysis::kSim)) {
    deadline.Check("simulation setup");
    SimConfig cfg = ScenarioSimBudget(scenario, scenario.rate);
    cfg.workload = workload;
    cfg.deadline = deadline;
    if (sim_budget_fault) cfg.max_events = 64;
    const auto sim = GetSim(entry);
    const SimResult sr = sim->Run(cfg, scratch);
    SimAnalysisResult a;
    a.rate = scenario.rate;
    a.seed = cfg.seed;
    a.delivered = sr.delivered;
    a.duration = sr.duration;
    a.mean = sr.latency.Mean();
    a.ci95 = sr.latency.HalfWidth95();
    a.min = sr.latency.Min();
    a.max = sr.latency.Max();
    a.intra_mean = sr.intra_latency.Mean();
    a.intra_count = static_cast<std::int64_t>(sr.intra_latency.Count());
    a.inter_mean = sr.inter_latency.Mean();
    a.inter_count = static_cast<std::int64_t>(sr.inter_latency.Count());
    a.icn1_mean = sr.icn1_util.Mean(sr.duration);
    a.icn1_max = sr.icn1_util.Max(sr.duration);
    a.ecn1_mean = sr.ecn1_util.Mean(sr.duration);
    a.ecn1_max = sr.ecn1_util.Max(sr.duration);
    a.icn2_mean = sr.icn2_util.Mean(sr.duration);
    a.icn2_max = sr.icn2_util.Max(sr.duration);
    report.sim = std::move(a);
  }
}

Report Engine::Evaluate(const Scenario& scenario, int threads) {
  SimScratch scratch;
  Report report;
  EvaluateInto(scenario, /*scenario_index=*/0, BatchOptions{}, scratch,
               threads, report);
  return report;
}

std::vector<Report> Engine::EvaluateBatch(
    const std::vector<Scenario>& scenarios, const BatchOptions& opts) {
  std::vector<Report> reports(scenarios.size());
  // Isolation: every scenario yields a report; a failure becomes that
  // report's status record (keeping the analyses that completed before the
  // throw). The captured exception_ptr feeds fail_fast's deterministic
  // lowest-index rethrow.
  std::vector<std::exception_ptr> errors(scenarios.size());
  ParallelFor<SimScratch>(
      scenarios.size(), opts.threads, [&](std::size_t i, SimScratch& scratch) {
        try {
          // Per-scenario sweeps run serially (sweep_threads = 1) in batches,
          // so thread counts cannot change any result.
          EvaluateInto(scenarios[i], static_cast<int>(i), opts, scratch,
                       /*sweep_threads=*/1, reports[i]);
        } catch (const std::exception& e) {
          reports[i].scenario = scenarios[i].name;
          reports[i].system_spec = scenarios[i].system;
          reports[i].status.code = ErrorCodeOf(e);
          reports[i].status.message = e.what();
          errors[i] = std::current_exception();
        } catch (...) {
          reports[i].scenario = scenarios[i].name;
          reports[i].system_spec = scenarios[i].system;
          reports[i].status.code = StatusCode::kInternalError;
          reports[i].status.message = "unknown error";
          errors[i] = std::current_exception();
        }
        return !(opts.fail_fast && errors[i]);
      });
  if (opts.fail_fast) {
    // Lowest index wins, so the rethrown error is the same for any thread
    // count even when several scenarios failed before the stop landed.
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }
  return reports;
}

}  // namespace coc
