// google-benchmark microbenchmarks of the analytical model itself: a design
// tool is only useful if a full-system evaluation is cheap, so we track the
// cost of one Evaluate() on both Table 1 organizations, the cost of the
// saturation search (the oracle's plain search and the compiled one), the
// compiled sweep path (CompiledModel + EvaluateMany) against the pointwise
// reference loop it replaced, and the render of an evaluated Report to the
// bytes a served miss caches.
#include <benchmark/benchmark.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "harness/sweep.h"
#include "model/compiled_model.h"
#include "oracle/latency_model.h"
#include "system/presets.h"
#include "topology/topology_spec.h"

namespace coc {
namespace {

/// The rate grid of a full latency-vs-rate sweep on the N=1120 organization
/// (the Figs. 3-6 x-axis, at sweep-CSV resolution).
std::vector<double> SweepGrid() { return LinearRates(4.5e-4, 48); }

void BM_Evaluate1120(benchmark::State& state) {
  const auto sys = MakeSystem1120(MessageFormat{32, 256});
  LatencyModel model(sys);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Evaluate(3e-4).mean_latency);
  }
}
BENCHMARK(BM_Evaluate1120);

void BM_Evaluate544(benchmark::State& state) {
  const auto sys = MakeSystem544(MessageFormat{64, 512});
  LatencyModel model(sys);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Evaluate(2e-4).mean_latency);
  }
}
BENCHMARK(BM_Evaluate544);

void BM_SaturationSearch1120(benchmark::State& state) {
  const auto sys = MakeSystem1120(MessageFormat{32, 256});
  LatencyModel model(sys);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.SaturationRate(2e-3));
  }
}
BENCHMARK(BM_SaturationSearch1120);

// The search the Engine runs: CompiledModel::SaturationRate(1.0), with the
// model evaluations it spent as the `probes` counter.
void CompiledSaturationSearch(benchmark::State& state,
                              const SystemConfig& sys) {
  const CompiledModel model(sys);
  int probes = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.SaturationRate(1.0, 1e-3, nullptr, &probes));
  }
  state.counters["probes"] = probes;
}

void BM_CompiledSaturationSearch1120(benchmark::State& state) {
  CompiledSaturationSearch(state, MakeSystem1120(MessageFormat{32, 256}));
}
BENCHMARK(BM_CompiledSaturationSearch1120);

void BM_CompiledSaturationSearch544(benchmark::State& state) {
  CompiledSaturationSearch(state, MakeSystem544(MessageFormat{32, 256}));
}
BENCHMARK(BM_CompiledSaturationSearch544);

void BM_ModelConstruction(benchmark::State& state) {
  const auto sys = MakeSystem1120(MessageFormat{32, 256});
  for (auto _ : state) {
    LatencyModel model(sys);
    benchmark::DoNotOptimize(&model);
  }
}
BENCHMARK(BM_ModelConstruction);

void BM_CompiledModelBuild(benchmark::State& state) {
  const auto sys = MakeSystem1120(MessageFormat{32, 256});
  for (auto _ : state) {
    CompiledModel model(sys);
    benchmark::DoNotOptimize(&model);
  }
}
BENCHMARK(BM_CompiledModelBuild);

// The same cold compile with the 32 clusters on a 128-slot tree:3 ICN2, so
// the model reads the census of the occupied slots. Every compile comes
// from one SystemConfig, whose constructor counted that census.
void BM_CompiledModelBuildSparseIcn2(benchmark::State& state) {
  const auto sys = MakeSystem1120(MessageFormat{32, 256})
                       .WithIcn2Topology(ParseTopologySpec("tree:3"));
  for (auto _ : state) {
    CompiledModel model(sys);
    benchmark::DoNotOptimize(&model);
  }
}
BENCHMARK(BM_CompiledModelBuildSparseIcn2);

// The system set-up a sparse ICN2 override costs a served request once:
// preset:1120 rebuilt on a 65,536-slot mesh:4x8 ICN2, through its first
// icn2_links() read, which is the census of the 32 occupied slots.
void BM_SystemBuildSparseIcn2(benchmark::State& state) {
  const auto base = MakeSystem1120(MessageFormat{32, 256});
  const TopologySpec spec = ParseTopologySpec("mesh:4x8");
  for (auto _ : state) {
    const SystemConfig sys = base.WithIcn2Topology(spec);
    benchmark::DoNotOptimize(&sys.icn2_links());
  }
}
BENCHMARK(BM_SystemBuildSparseIcn2);

// The sweep pair: one full rate grid per iteration on the N=1120
// organization, compiled (build + EvaluateMany) vs the pointwise loop over
// the equation-shaped LatencyModel oracle (tests/oracle/). The ratio of the
// two is the sweep speedup the README quotes; both produce bit-identical
// results (tests/compiled_model_test.cc).
void BM_ModelSweep(benchmark::State& state) {
  const auto sys = MakeSystem1120(MessageFormat{32, 256});
  const auto rates = SweepGrid();
  std::vector<ModelResult> out;
  for (auto _ : state) {
    const CompiledModel model(sys);
    model.EvaluateMany(rates, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rates.size()));
}
BENCHMARK(BM_ModelSweep);

void BM_ModelSweepPointwise(benchmark::State& state) {
  const auto sys = MakeSystem1120(MessageFormat{32, 256});
  const auto rates = SweepGrid();
  for (auto _ : state) {
    const LatencyModel model(sys);
    for (const double r : rates) {
      benchmark::DoNotOptimize(model.Evaluate(r).mean_latency);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rates.size()));
}
BENCHMARK(BM_ModelSweepPointwise);

// The rebind pair: one workload-dial move on the N=1120 organization —
// bump one cluster's rate scale — recompiled incrementally
// (CompiledModel::Rebind) vs from scratch. Both produce bit-identical
// models (tests/compiled_model_test.cc); both times are trajectory data.
// The rebind row also exports what the move reused (rebind_stats()), and
// tools/perf_report --check requires those counts to equal the snapshot's:
// a Rebind that reuses nothing fails on a count, not on a timing ratio.
void BM_WorkloadDialMoveRebind(benchmark::State& state) {
  const auto sys = MakeSystem1120(MessageFormat{32, 256});
  const CompiledModel base(sys);
  std::vector<double> scales(static_cast<std::size_t>(sys.num_clusters()),
                             1.0);
  double bump = 1.25;
  for (auto _ : state) {
    scales[0] = bump;
    const CompiledModel moved = base.Rebind(
        Workload::Uniform().WithRateScale(std::vector<double>(scales)));
    benchmark::DoNotOptimize(&moved);
    bump = bump == 1.25 ? 1.5 : 1.25;  // alternate so no iteration no-ops
  }
  scales[0] = bump;
  const CompiledModel::RebindStats stats =
      base.Rebind(Workload::Uniform().WithRateScale(std::move(scales)))
          .rebind_stats();
  state.counters["intra_reused"] = stats.intra_reused;
  state.counters["pair_reused"] = stats.pair_reused;
  state.counters["combos_shared"] = stats.combos_shared;
}
BENCHMARK(BM_WorkloadDialMoveRebind);

void BM_WorkloadDialMoveCold(benchmark::State& state) {
  const auto sys = MakeSystem1120(MessageFormat{32, 256});
  std::vector<double> scales(static_cast<std::size_t>(sys.num_clusters()),
                             1.0);
  double bump = 1.25;
  for (auto _ : state) {
    scales[0] = bump;
    const CompiledModel moved(
        sys, Workload::Uniform().WithRateScale(std::vector<double>(scales)));
    benchmark::DoNotOptimize(&moved);
    bump = bump == 1.25 ? 1.5 : 1.25;
  }
}
BENCHMARK(BM_WorkloadDialMoveCold);

/// The locality grid of the README's workload-dial sweep table.
std::vector<double> LocalityGrid() {
  std::vector<double> values;
  for (int i = 1; i <= 19; ++i) values.push_back(0.05 * i);
  return values;
}

// The grid pair: a 19-point locality sweep (each point also evaluated over
// the rate grid), rebind-chained vs cold-compiled per point — the
// workload-dial sweep the CLI's --sweep-locality runs.
void BM_WorkloadDialSweepRebind(benchmark::State& state) {
  const auto sys = MakeSystem1120(MessageFormat{32, 256});
  const auto values = LocalityGrid();
  const auto rates = SweepGrid();
  std::vector<ModelResult> out;
  for (auto _ : state) {
    std::optional<CompiledModel> model;
    for (const double v : values) {
      const Workload w = Workload::ClusterLocal(v);
      if (!model) {
        model.emplace(sys, w);
      } else {
        model = model->Rebind(w);
      }
      model->EvaluateMany(rates, out);
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_WorkloadDialSweepRebind);

void BM_WorkloadDialSweepCold(benchmark::State& state) {
  const auto sys = MakeSystem1120(MessageFormat{32, 256});
  const auto values = LocalityGrid();
  const auto rates = SweepGrid();
  std::vector<ModelResult> out;
  for (auto _ : state) {
    for (const double v : values) {
      const CompiledModel model(sys, Workload::ClusterLocal(v));
      model.EvaluateMany(rates, out);
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_WorkloadDialSweepCold);

// The render layer: one evaluated Report written to its compact bytes
// (Report::ToJsonText), what a served miss stores in the result cache. The
// `bytes` counter is the report's size.
void ReportRender(benchmark::State& state, const char* scenario) {
  Engine engine;
  const Report report = engine.Evaluate(ParseScenario(scenario));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string text = report.ToJsonText();
    bytes = text.size();
    benchmark::DoNotOptimize(text.data());
    benchmark::ClobberMemory();
  }
  state.counters["bytes"] = static_cast<double>(bytes);
}

// A dial_walk-shaped miss: 32 clusters of model rows, plus the bottleneck
// and saturation blocks.
void BM_ReportRender1120(benchmark::State& state) {
  ReportRender(state,
               "[scenario render]\nsystem = preset:1120\n"
               "analyses = model,bottleneck,saturation\nrate = 1e-4\n");
}
BENCHMARK(BM_ReportRender1120);

// A model-only 16-point sweep, dial_walk's other miss shape.
void BM_ReportRenderSweep(benchmark::State& state) {
  ReportRender(state,
               "[scenario render]\nsystem = preset:1120\nanalyses = sweep\n"
               "sweep.max_rate = 4e-4\nsweep.points = 16\nsweep.sim = false\n");
}
BENCHMARK(BM_ReportRenderSweep);

}  // namespace
}  // namespace coc

BENCHMARK_MAIN();
