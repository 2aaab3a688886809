// google-benchmark microbenchmarks of the analytical model itself: a design
// tool is only useful if a full-system evaluation is cheap, so we track the
// cost of one Evaluate() on both Table 1 organizations, the cost of the
// saturation search, and the compiled sweep path (CompiledModel +
// EvaluateMany) against the pointwise reference loop it replaced.
#include <benchmark/benchmark.h>

#include <optional>
#include <utility>
#include <vector>

#include "harness/sweep.h"
#include "model/compiled_model.h"
#include "oracle/latency_model.h"
#include "system/presets.h"

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

// Warm-started saturation search: re-running with the refined bracket of a
// previous run on the same model (the incremental-sweep case — e.g. the
// Engine re-reporting a cached scenario) skips every probe.
void BM_SaturationWarm(benchmark::State& state) {
  const auto sys = MakeSystem1120(MessageFormat{32, 256});
  const CompiledModel model(sys);
  SaturationBracket bracket;
  benchmark::DoNotOptimize(
      model.SaturationRate(2e-3, 1e-3, nullptr, &bracket));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.SaturationRate(2e-3, 1e-3, &bracket, nullptr));
  }
}
BENCHMARK(BM_SaturationWarm);

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

// Certified bracket transfer: the saturation search at an adjacent workload
// point, warm-started from the previous point's refined bracket (two
// certification probes + the probes the bracket doesn't answer) vs the cold
// search BM_SaturationSearch1120 tracks.
void BM_SaturationBracketTransfer(benchmark::State& state) {
  const auto sys = MakeSystem1120(MessageFormat{32, 256});
  const CompiledModel prev(sys, Workload::ClusterLocal(0.5));
  SaturationBracket bracket;
  benchmark::DoNotOptimize(
      prev.SaturationRate(2e-3, 1e-3, nullptr, &bracket));
  const CompiledModel next = prev.Rebind(Workload::ClusterLocal(0.55));
  for (auto _ : state) {
    const SaturationBracket warm = next.CertifyBracketTransfer(bracket);
    benchmark::DoNotOptimize(
        next.SaturationRate(2e-3, 1e-3, &warm, nullptr));
  }
}
BENCHMARK(BM_SaturationBracketTransfer);

}  // namespace
}  // namespace coc

BENCHMARK_MAIN();
