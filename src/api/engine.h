// Engine — the one evaluator behind every consumer (CLI commands, the batch
// service path, embedding code): it turns a Scenario into a Report.
//
// The facade earns its keep by reusing expensive state across calls, which
// is what makes evaluating thousands of heterogeneous scenarios in one
// process cheap:
//   * systems dedupe by (system spec, ICN2 override): one SystemConfig —
//     and therefore one shared Topology instance per distinct resolved spec,
//     with its cached link distributions — no matter how many scenarios
//     reference it;
//   * the discrete-event simulator (CocSystemSim, whose construction builds
//     the global channel table and route-skeleton caches) is built lazily
//     once per system and shared;
//   * CompiledModel instances memoize per (system, workload, options) key —
//     scenarios that sweep the rate dial against one model compile it once,
//     and the model's saturation search (about one model evaluation) is
//     cached alongside it, so a batch of scenarios sharing a model runs the
//     search exactly once;
//   * each batch worker thread owns a SimScratch, so steady-state simulation
//     stays allocation-free across the scenarios it evaluates.
//
// Batch evaluation is deterministic: every scenario is evaluated
// independently (seeded sim, pure model), results land at the scenario's
// index, and per-scenario sweeps run serially inside batches — so the
// resulting reports (and their JSON) are bit-identical for any thread count.
//
// Fault isolation: EvaluateBatch never tears. A scenario failure — invalid
// scenario, model error, sim budget, deadline — becomes that report's
// structured status record (with whatever partial results completed) and
// the other scenarios are unaffected; the batch always returns all N
// reports, in order. BatchOptions::fail_fast restores abort-and-rethrow.
// Faulted scenarios never write the shared caches, so an injected or real
// failure cannot poison a later scenario's result.
//
// Thread-safety: one Engine may be shared; the caches are mutex-guarded and
// the cached objects are immutable after construction (CompiledModel and
// CocSystemSim evaluate via const methods with no hidden state).
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "api/report.h"
#include "api/scenario.h"
#include "config/config_parser.h"
#include "common/deadline.h"
#include "common/fault_injection.h"
#include "common/lru_map.h"
#include "model/compiled_model.h"
#include "sim/coc_system_sim.h"

namespace coc {

class Engine {
 public:
  /// Cross-call cache bounds. The memo maps are accelerators, not
  /// registries: a long-lived mixed request stream (server mode) must not
  /// grow memory without bound, so each map can be capped. Eviction is LRU
  /// and costs only a later rebuild — never correctness — and an evicted
  /// model's family may still rebind warm from the rebind-source table,
  /// which holds its own reference to the latest model per family.
  struct Options {
    /// Max (system spec, ICN2 override) entries; 0 = unbounded (the one-shot
    /// CLI default, where the scenario file bounds the working set).
    std::size_t system_entries = 0;
    /// Max (system, workload, options) compiled-model entries; 0 = unbounded.
    std::size_t model_entries = 0;
  };

  /// Max rebind-source families (see rebind_sources_).
  static constexpr std::size_t kRebindSources = 16;

  Engine() = default;
  explicit Engine(const Options& opts) : opts_(opts) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Knobs of one EvaluateBatch call.
  struct BatchOptions {
    int threads = 1;        ///< worker threads (<= 1 = serial)
    bool fail_fast = false; ///< abort on the first failure and rethrow it
    /// Deadline (milliseconds) applied to every scenario that does not set
    /// its own `deadline_ms`. Unset = no default deadline.
    std::optional<double> default_deadline_ms;
    /// Deterministic fault-injection seam (tests / drills); disarmed by
    /// default. Armed sites fire for the scenario at the armed batch index.
    FaultInjector faults;
  };

  /// Evaluates one scenario. `threads` parallelizes a sweep analysis'
  /// simulation points (<= 1 = serial; the results are bit-identical either
  /// way). Throws on unloadable systems or invalid scenarios (typed errors
  /// from common/status.h; scenario/usage errors remain
  /// std::invalid_argument subclasses).
  Report Evaluate(const Scenario& scenario, int threads = 1);

  /// Evaluates a batch over `opts.threads` worker threads. Reports come
  /// back in scenario order, bit-identical for any thread count, one per
  /// scenario — a failed scenario yields a report whose `status` carries
  /// the typed error (and any partial results), not an exception. With
  /// `opts.fail_fast` the lowest-index failure is rethrown instead.
  std::vector<Report> EvaluateBatch(const std::vector<Scenario>& scenarios,
                                    const BatchOptions& opts);

  /// Cache occupancy, for tests and diagnostics.
  struct CacheStats {
    std::size_t systems = 0;  ///< distinct (system, ICN2 override) entries
    std::size_t sims = 0;     ///< of those, with a simulator built
    std::size_t models = 0;   ///< distinct (system, workload, opts) models
    /// Of the model compiles, how many were incremental rebinds from a
    /// workload-adjacent sibling on the same (system, options) family
    /// instead of cold compiles (bit-identical either way).
    std::size_t model_rebinds = 0;
    /// Rebind-source entries dropped by the LRU bound on the per-family
    /// table (an eviction only costs a later cold compile, never
    /// correctness).
    std::size_t rebind_evictions = 0;
    /// Model entries dropped by Options::model_entries. Warm state lost,
    /// not correctness: a re-request rebinds from the family's surviving
    /// rebind source, or compiles cold.
    std::size_t model_evictions = 0;
    /// System entries dropped by Options::system_entries (the shared
    /// Topology and any lazily-built simulator go with it).
    std::size_t system_evictions = 0;
    /// Saturation searches run (a memoized lambda* runs none) and the model
    /// evaluations they spent (CompiledModel::SaturationRate's `probes`).
    std::size_t saturation_searches = 0;
    std::size_t saturation_probes = 0;
  };
  CacheStats Stats() const;

 private:
  struct SystemEntry {
    explicit SystemEntry(Experiment exp) : experiment(std::move(exp)) {}
    Experiment experiment;
    std::shared_ptr<const CocSystemSim> sim;  ///< lazy; guarded by mu_
  };

  struct ModelEntry {
    explicit ModelEntry(std::shared_ptr<const CompiledModel> m)
        : model(std::move(m)) {}
    std::shared_ptr<const CompiledModel> model;
    /// Cached SaturationRate(1.0); guarded by mu_ (the search itself runs
    /// outside the lock; the first finisher's value wins). Stored only on
    /// a successful search, so faulted runs never poison the cache.
    std::optional<double> saturation_rate;
  };

  std::shared_ptr<SystemEntry> GetSystem(const Scenario& scenario);
  std::shared_ptr<const CocSystemSim> GetSim(
      const std::shared_ptr<SystemEntry>& entry);
  /// `deadline` (null when the scenario has none) bounds the compile or
  /// rebind on a miss, as it bounds the search and the evaluations.
  std::shared_ptr<ModelEntry> GetModel(const std::string& system_key,
                                       const SystemEntry& entry,
                                       const Workload& workload,
                                       const ModelOptions& opts,
                                       const Deadline* deadline);
  double GetSaturationRate(const std::shared_ptr<ModelEntry>& entry,
                           const Deadline* deadline);

  /// Fills `report` in place (so a thrown error leaves the completed
  /// analyses in the caller's hands). `scenario_index` keys fault arms.
  void EvaluateInto(const Scenario& scenario, int scenario_index,
                    const BatchOptions& opts, SimScratch& scratch,
                    int sweep_threads, Report& report);

  const Options opts_;
  mutable std::mutex mu_;
  // The memo maps, each bounded by its Options cap and guarded by mu_. A
  // lookup hit touches the entry; an insert past the cap evicts the least
  // recently touched one (LruMap counts the evictions for CacheStats).
  LruMap<std::shared_ptr<SystemEntry>> systems_{opts_.system_entries};
  LruMap<std::shared_ptr<ModelEntry>> models_{opts_.model_entries};
  /// Latest compiled model per (system, options) family — the rebind source
  /// a cache miss for an adjacent workload starts from instead of compiling
  /// cold. Its values are also held by models_, so this adds structure
  /// sharing, not lifetime — and because the table keeps its own reference,
  /// a family evicted from models_ can still rebind warm while its rebind
  /// source survives. Bounded by kRebindSources (a batch cycling through
  /// many distinct families would otherwise pin one model per family
  /// forever); an evicted family compiles cold on its next miss.
  LruMap<std::shared_ptr<const CompiledModel>> rebind_sources_{
      kRebindSources};
  std::size_t model_rebinds_ = 0;        ///< guarded by mu_
  std::size_t saturation_searches_ = 0;  ///< guarded by mu_
  std::size_t saturation_probes_ = 0;    ///< guarded by mu_
};

}  // namespace coc
