// google-benchmark microbenchmarks of the simulation substrate: routing
// queries, per-message path construction, and end-to-end simulated messages
// per second on a small system (the quantity that bounds every validation
// sweep's wall time).
#include <benchmark/benchmark.h>

#include "sim/coc_system_sim.h"
#include "system/presets.h"
#include "topology/m_port_n_tree.h"

namespace coc {
namespace {

void BM_RouteLookup(benchmark::State& state) {
  const MPortNTree tree(8, 3);
  std::int64_t a = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Route(a, tree.num_nodes() - 1 - a));
    a = (a + 17) % tree.num_nodes();
  }
}
BENCHMARK(BM_RouteLookup);

void BM_RouteLookupInto(benchmark::State& state) {
  // Allocation-free variant: one reused append buffer.
  const MPortNTree tree(8, 3);
  std::vector<std::int64_t> out;
  std::int64_t a = 0;
  for (auto _ : state) {
    out.clear();
    tree.RouteInto(a, tree.num_nodes() - 1 - a, 0, out);
    benchmark::DoNotOptimize(out.data());
    a = (a + 17) % tree.num_nodes();
  }
}
BENCHMARK(BM_RouteLookupInto);

void BM_BuildInterPath(benchmark::State& state) {
  const auto sys = MakeSystem1120(MessageFormat{32, 256});
  const CocSystemSim sim(sys);
  std::int64_t s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.BuildPath(s, sys.TotalNodes() - 1 - s));
    s = (s + 131) % (sys.TotalNodes() / 2);
  }
}
BENCHMARK(BM_BuildInterPath);

void BM_BuildInterPathInto(benchmark::State& state) {
  // The simulator's actual hot path: reused RoutedPath scratch + the
  // deterministic-ascent ICN2 route-skeleton cache.
  const auto sys = MakeSystem1120(MessageFormat{32, 256});
  const CocSystemSim sim(sys);
  RoutedPath routed;
  std::int64_t s = 0;
  for (auto _ : state) {
    sim.BuildRoutedPathInto(s, sys.TotalNodes() - 1 - s, 0, routed);
    benchmark::DoNotOptimize(routed.path.data());
    s = (s + 131) % (sys.TotalNodes() / 2);
  }
}
BENCHMARK(BM_BuildInterPathInto);

void BM_SimulateSmallSystem(benchmark::State& state) {
  const auto sys = MakeSmallSystem(MessageFormat{16, 64});
  const CocSystemSim sim(sys);
  SimConfig cfg;
  cfg.lambda_g = 2e-4;
  cfg.warmup_messages = 200;
  cfg.measured_messages = 2000;
  cfg.drain_messages = 200;
  std::int64_t messages = 0;
  for (auto _ : state) {
    cfg.seed++;
    const auto r = sim.Run(cfg);
    messages += r.delivered;
    benchmark::DoNotOptimize(r.latency.Mean());
  }
  state.counters["msgs/s"] = benchmark::Counter(
      static_cast<double>(messages), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulateSmallSystem);

void BM_SimulateSmallSystemReusedArena(benchmark::State& state) {
  // Sweep configuration: one SimScratch (engine arena, traffic buffer, path
  // staging) carried across runs, as each RunSweepParallel worker does.
  const auto sys = MakeSmallSystem(MessageFormat{16, 64});
  const CocSystemSim sim(sys);
  SimConfig cfg;
  cfg.lambda_g = 2e-4;
  cfg.warmup_messages = 200;
  cfg.measured_messages = 2000;
  cfg.drain_messages = 200;
  SimScratch scratch;
  std::int64_t messages = 0;
  for (auto _ : state) {
    cfg.seed++;
    const auto r = sim.Run(cfg, scratch);
    messages += r.delivered;
    benchmark::DoNotOptimize(r.latency.Mean());
  }
  state.counters["msgs/s"] = benchmark::Counter(
      static_cast<double>(messages), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulateSmallSystemReusedArena);

void BM_SimulateManyFlitTimes(benchmark::State& state) {
  // The case the presets do not cover: every cluster's networks have their
  // own bandwidths, so the 32 clusters (the N=1120 shape) carry 105 distinct
  // flit times, one delay lane each, where a Table 1 system has 4.
  std::vector<ClusterConfig> clusters;
  for (int i = 0; i < 32; ++i) {
    const int n = i <= 11 ? 1 : (i <= 27 ? 2 : 3);
    clusters.push_back(ClusterConfig{n, {500.0 + 7 * i, 0.01, 0.02},
                                     {250.0 + 3 * i, 0.05, 0.01}});
  }
  const SystemConfig sys(/*m=*/8, std::move(clusters), /*icn2=*/Net1(),
                         MessageFormat{16, 64});
  const CocSystemSim sim(sys);
  SimConfig cfg;
  cfg.lambda_g = 1e-4;
  cfg.warmup_messages = 200;
  cfg.measured_messages = 2000;
  cfg.drain_messages = 200;
  SimScratch scratch;
  std::int64_t messages = 0;
  for (auto _ : state) {
    cfg.seed++;
    const auto r = sim.Run(cfg, scratch);
    messages += r.delivered;
    benchmark::DoNotOptimize(r.latency.Mean());
  }
  state.counters["msgs/s"] = benchmark::Counter(
      static_cast<double>(messages), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulateManyFlitTimes);

}  // namespace
}  // namespace coc

BENCHMARK_MAIN();
