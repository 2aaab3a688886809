// google-benchmark microbenchmarks of the analytical model itself: a design
// tool is only useful if a full-system evaluation is cheap, so we track the
// cost of one Evaluate() on both Table 1 organizations, the cost of the
// saturation search, and the compiled sweep path (CompiledModel +
// EvaluateMany) against the pointwise reference loop it replaced.
#include <benchmark/benchmark.h>

#include <chrono>
#include <optional>
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
// models (tests/compiled_model_test.cc); the ratio is the single-dial-move
// speedup the README quotes, and tools/perf_report --check gates it at 5x.
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

// The gated ratio: one cold compile and one rebind of the SAME dial move
// per iteration, each timed with its own clock interval. Interleaving the
// two within every iteration exposes them to the same scheduler/frequency
// noise, so the reported rebind_speedup counter is stable across runs in a
// way two separately-measured benchmarks are not. One short sample still
// carries scheduler noise, so tools/perf_report --check gates the median
// of 5 repetitions at 5x (20 runs on a shared 4-vCPU host read 5.2-6.4x).
void BM_WorkloadDialMoveRebindVsCold(benchmark::State& state) {
  const auto sys = MakeSystem1120(MessageFormat{32, 256});
  const CompiledModel base(sys);
  std::vector<double> scales(static_cast<std::size_t>(sys.num_clusters()),
                             1.0);
  double bump = 1.25;
  double cold_ns = 0;
  double rebind_ns = 0;
  using clock = std::chrono::steady_clock;
  for (auto _ : state) {
    scales[0] = bump;
    const Workload w =
        Workload::Uniform().WithRateScale(std::vector<double>(scales));
    const auto t0 = clock::now();
    const CompiledModel cold(sys, w);
    const auto t1 = clock::now();
    const CompiledModel moved = base.Rebind(w);
    const auto t2 = clock::now();
    benchmark::DoNotOptimize(&cold);
    benchmark::DoNotOptimize(&moved);
    cold_ns += static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    rebind_ns += static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1).count());
    bump = bump == 1.25 ? 1.5 : 1.25;
  }
  state.counters["rebind_speedup"] = rebind_ns > 0 ? cold_ns / rebind_ns : 0;
}
BENCHMARK(BM_WorkloadDialMoveRebindVsCold)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

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
