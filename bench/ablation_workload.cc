// Ablation: the unified workload layer on one Table-1 organization (N=544,
// M=32, d_m=256) — destination pattern x locality/hotspot fraction, each cell
// evaluated by BOTH the analytical model and the simulator from the same
// Workload object. Before the workload layer the model column existed only
// for the uniform row; the err% columns quantify how far the generalized
// Eqs. 2/22-23/35 track the simulator on the patterns the paper left as
// future work.
//
// Doubles as a tracked perf/validation artifact: tools/perf_report runs this
// binary with google-benchmark-style flags (--benchmark_out=PATH,
// --benchmark_out_format=json, --benchmark_min_time=S — the latter accepted
// for interface compatibility and ignored) and writes the emitted JSON to
// the perf/BENCH_workload.json snapshot; --check fails when any row's
// model-vs-sim error moves from it.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table.h"

namespace {

struct Cell {
  std::string name;      // workload/<desc>/rate=<r>
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
                  "\"bench_ablation_workload\"\n  },\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    // Saturated model points carry a flag and omit model_us/err_pct so no
    // consumer can mistake an infinite-latency prediction for 0 us.
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
                   "usage: bench_ablation_workload [--benchmark_out=PATH]\n");
      return 1;
    }
  }

  bench::PrintHeader("Ablation: workload layer",
                     "pattern x fraction, model AND sim from one Workload");

  const auto sys = MakeSystem544(MessageFormat{32, 256});

  struct Scenario {
    const char* name;
    Workload workload;
  };
  const std::vector<Scenario> scenarios = {
      {"uniform", Workload::Uniform()},
      {"local_0.5", Workload::ClusterLocal(0.5)},
      {"local_0.8", Workload::ClusterLocal(0.8)},
      {"hotspot_0.1", Workload::Hotspot(0.1, 0)},
      {"hotspot_0.3", Workload::Hotspot(0.3, 0)},
  };
  const std::vector<double> rates = LinearRates(4e-4, 4);

  std::vector<Cell> cells;
  Table t({"workload", "lambda_g", "model_us", "sim_us", "err_%"});
  for (const auto& s : scenarios) {
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
      c.name = std::string("workload/") + s.name + "/rate=" +
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

  std::printf("\nN=544 M=32 Lm=256, mean latency (us):\n%s", t.ToString().c_str());
  std::printf(
      "\nreading guide: every row is one Workload object driving both\n"
      "columns; hotspot rows saturate early on the hot node's ejection\n"
      "link (now visible to the model), local rows bypass the C/D\n"
      "bottleneck and extend far past the uniform saturation point.\n");
  MaybeWriteCsv("ablation_workload", t.ToCsv());
  if (!json_out.empty()) WriteJson(json_out, cells);
  return 0;
}
