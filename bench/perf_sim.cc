// google-benchmark microbenchmarks of the simulation substrate: routing
// queries, per-message path construction, and end-to-end simulated messages
// per second on a small system (the quantity that bounds every validation
// sweep's wall time).
#include <benchmark/benchmark.h>

#include <cmath>

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

void BM_SimulateServeShapes(benchmark::State& state) {
  // The served simulations of servebench's sim_serve workload: four presets
  // at 0.05 and 0.2 of their saturation rates (uniform traffic), 100 / 1000
  // / 100 messages each, one SimScratch carried across all eight shapes as
  // a sweep worker carries it. `flit_events` counts flit transmissions
  // (one engine event each), so time / flit_events is the cost of one.
  struct Shape {
    SystemConfig (*make)(MessageFormat);
    double saturation;
  };
  const Shape shapes[] = {{MakeTinySystem, 9.48e-3},
                          {MakeDragonflySystem, 6.39e-3},
                          {MakeSystem544, 1.04e-3},
                          {MakeSystem1120, 5.17e-4}};
  std::vector<CocSystemSim> sims;
  std::vector<double> rates;
  for (const Shape& s : shapes) {
    for (const double fraction : {0.05, 0.2}) {
      sims.emplace_back(s.make(MessageFormat{32, 256}));
      rates.push_back(s.saturation * fraction);
    }
  }
  SimConfig cfg;
  cfg.warmup_messages = 100;
  cfg.measured_messages = 1000;
  cfg.drain_messages = 100;
  SimScratch scratch;
  std::int64_t messages = 0;
  double flit_events = 0;
  for (auto _ : state) {
    cfg.seed++;
    for (std::size_t i = 0; i < sims.size(); ++i) {
      cfg.lambda_g = rates[i];
      const auto r = sims[i].Run(cfg, scratch);
      messages += r.delivered;
      benchmark::DoNotOptimize(r.latency.Mean());
      // Each channel's busy time is its flit count times its flit time.
      const auto& times = sims[i].channel_flit_times();
      for (std::size_t ch = 0; ch < times.size(); ++ch) {
        flit_events += std::round(scratch.engine.ChannelBusyTime(
                                      static_cast<std::int32_t>(ch)) /
                                  times[ch]);
      }
    }
  }
  state.counters["msgs/s"] = benchmark::Counter(
      static_cast<double>(messages), benchmark::Counter::kIsRate);
  state.counters["flit_events"] = benchmark::Counter(
      flit_events, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SimulateServeShapes);

}  // namespace
}  // namespace coc

BENCHMARK_MAIN();
