// Ablation: the dragonfly topology family, Fig. 3-6 style — a
// cluster-of-clusters of four dragonfly:4,2,2 clusters (72 nodes each, 288
// total) swept from light load to past the analytical saturation dial, with
// BOTH routing oracles (minimal l-g-l and Valiant group-level
// randomization) and BOTH the uniform and the adversarial permutation
// workloads. Every cell is evaluated by the analytical model and the
// simulator from the same system/Workload objects, so the err% column is
// the model-vs-sim validation error per (routing, pattern, rate).
//
// Reading guide: the cluster-local rows isolate the ICN1 dragonfly, so
// they expose the Valiant detour cost directly (and the model's per-routing
// link distributions track it); under uniform/permutation the shared
// inter-cluster path dominates and the two routings tie. The
// group-concentrated adversarial patterns where Valiant overtakes minimal
// routing are the ROADMAP's next workload item.
//
// Doubles as a tracked perf/validation artifact: tools/perf_report runs
// this binary with google-benchmark-style flags and writes the emitted
// JSON to the perf/BENCH_dragonfly.json snapshot, and --check gates the
// dragonfly model-vs-sim error the same way as the workload suite's.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "topology/topology_spec.h"

namespace {

struct Cell {
  std::string name;      // dragonfly/<routing>/<pattern>/rate=<r>
  double wall_ns = 0;    // wall time of the simulated point
  double model_us = 0;   // analytical mean latency (0 when saturated)
  double sim_us = 0;     // simulated mean latency
  double err_pct = 0;    // 100 * (model - sim) / sim
  bool model_saturated = false;
};

/// Emits the cells in google-benchmark's JSON schema (context block plus a
/// "benchmarks" array) so tools/perf_report's parser reads it unchanged.
void WriteJson(const std::string& path, const std::vector<Cell>& cells) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"context\": {\n    \"executable\": "
                  "\"bench_ablation_dragonfly\"\n  },\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(f,
                 "    {\n      \"name\": \"%s\",\n      \"run_type\": "
                 "\"iteration\",\n      \"iterations\": 1,\n      "
                 "\"real_time\": %.6e,\n      \"cpu_time\": %.6e,\n      "
                 "\"time_unit\": \"ns\",\n      \"model_saturated\": %d,\n",
                 c.name.c_str(), c.wall_ns, c.wall_ns,
                 c.model_saturated ? 1 : 0);
    if (!c.model_saturated) {
      std::fprintf(f, "      \"model_us\": %.6e,\n      \"err_pct\": %.6e,\n",
                   c.model_us, c.err_pct);
    }
    std::fprintf(f, "      \"sim_us\": %.6e\n    }%s\n", c.sim_us,
                 i + 1 == cells.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

coc::SystemConfig MakeDragonfly422System(coc::TopologySpec::Routing routing) {
  using namespace coc;
  std::vector<ClusterConfig> clusters;
  clusters.reserve(4);
  for (int i = 0; i < 4; ++i) {
    ClusterConfig c{1, Net1(), Net2()};
    c.icn1_topo = TopologySpec::Dragonfly(4, 2, 2, routing);
    clusters.push_back(c);
  }
  return SystemConfig(4, std::move(clusters), Net1(),
                      MessageFormat{16, 64});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace coc;
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--benchmark_out=", 16) == 0) {
      json_out = arg + 16;
    } else if (std::strncmp(arg, "--benchmark_out_format=", 23) == 0 ||
               std::strncmp(arg, "--benchmark_min_time=", 21) == 0) {
      // Accepted for tools/perf_report interface compatibility.
    } else {
      std::fprintf(stderr,
                   "usage: bench_ablation_dragonfly [--benchmark_out=PATH]\n");
      return 1;
    }
  }

  bench::PrintHeader("Ablation: dragonfly topology",
                     "routing (min vs valiant) x pattern, model AND sim");

  struct Scenario {
    const char* name;
    TopologySpec::Routing routing;
    Workload workload;
  };
  const std::vector<Scenario> scenarios = {
      {"min/uniform", TopologySpec::Routing::kMin, Workload::Uniform()},
      {"min/local_0.9", TopologySpec::Routing::kMin,
       Workload::ClusterLocal(0.9)},
      {"min/permutation", TopologySpec::Routing::kMin,
       Workload::Permutation()},
      {"valiant/uniform", TopologySpec::Routing::kValiant,
       Workload::Uniform()},
      {"valiant/local_0.9", TopologySpec::Routing::kValiant,
       Workload::ClusterLocal(0.9)},
      {"valiant/permutation", TopologySpec::Routing::kValiant,
       Workload::Permutation()},
  };
  // The model's saturation dial for this system is ~7.8e-3 (condis-bound,
  // identical for both routings); sweep through the knee and past it.
  const std::vector<double> rates = LinearRates(8e-3, 6);

  std::vector<Cell> cells;
  Table t({"scenario", "lambda_g", "model_us", "sim_us", "err_%"});
  for (const auto& s : scenarios) {
    const auto sys = MakeDragonfly422System(s.routing);
    SweepSpec spec;
    spec.rates = rates;
    spec.workload = s.workload;
    spec.sim_base = DefaultSimBudget();
    spec.sim_abort_latency = 3000;
    const auto wall0 = std::chrono::steady_clock::now();
    const auto pts = RunSweepParallel(sys, spec, bench::SweepThreads());
    const double wall_ns =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - wall0)
                                .count()) /
        static_cast<double>(pts.size());
    for (const auto& p : pts) {
      Cell c;
      c.name = std::string("dragonfly/") + s.name + "/rate=" +
               FormatSci(p.lambda_g);
      c.wall_ns = wall_ns;
      c.model_saturated = !std::isfinite(p.model_latency);
      c.model_us = c.model_saturated ? 0.0 : p.model_latency;
      c.sim_us = p.sim_latency.value_or(0.0);
      c.err_pct = (p.sim_latency && *p.sim_latency > 0 && !c.model_saturated)
                      ? 100.0 * (p.model_latency - *p.sim_latency) /
                            *p.sim_latency
                      : 0.0;
      t.AddRow({s.name, FormatSci(p.lambda_g),
                c.model_saturated ? "saturated" : FormatDouble(c.model_us, 1),
                p.sim_latency ? FormatDouble(c.sim_us, 1) : "-",
                p.sim_latency && !c.model_saturated
                    ? FormatDouble(c.err_pct, 1)
                    : "-"});
      cells.push_back(std::move(c));
    }
  }

  std::printf("\n4 x dragonfly:4,2,2 (288 nodes), M=16 Lm=64, "
              "mean latency (us):\n%s",
              t.ToString().c_str());
  std::printf(
      "\nreading guide: the local_0.9 rows isolate the ICN1 dragonfly and\n"
      "show the valiant detour cost directly — the model's per-routing\n"
      "link distributions track it. Under uniform/permutation the shared\n"
      "inter-cluster path (ECN1 + condis + ICN2) dominates and the two\n"
      "routings tie; permutation rows also carry the model's\n"
      "uniform-marginal approximation (its fixed pairing widens the\n"
      "near-saturation error).\n");
  MaybeWriteCsv("ablation_dragonfly", t.ToCsv());
  if (!json_out.empty()) WriteJson(json_out, cells);
  return 0;
}
