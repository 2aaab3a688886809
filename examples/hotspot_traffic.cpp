// Non-uniform traffic — the paper's stated future work (§5): "we intend to
// take the non-uniform traffic pattern into account, which is closer to the
// real traffic in such systems".
//
// The analytical model assumes uniform destinations, so this example uses
// the simulator to show how three non-uniform patterns bend the latency
// curve away from the uniform-traffic model: a hot-spot receiver, cluster-
// local traffic, and a fixed permutation.
#include <cstdio>

#include "common/table.h"
#include "model/compiled_model.h"
#include "sim/coc_system_sim.h"
#include "system/presets.h"

int main() {
  using namespace coc;
  const auto sys = MakeSmallSystem(MessageFormat{16, 64});
  CompiledModel model(sys);
  CocSystemSim sim(sys);

  auto run = [&sim](double rate, const Workload& workload) {
    SimConfig cfg;
    cfg.lambda_g = rate;
    cfg.warmup_messages = 1000;
    cfg.measured_messages = 10000;
    cfg.drain_messages = 1000;
    cfg.workload = workload;
    return sim.Run(cfg);
  };

  std::printf(
      "non-uniform traffic on the C=8 system (model assumes uniform)\n\n");
  Table t({"lambda_g", "model(uniform)", "sim uniform", "sim hotspot 30%",
           "sim local 80%", "sim permutation"});
  for (double rate : {2e-3, 6e-3, 1e-2, 1.3e-2}) {
    t.AddRow({FormatSci(rate),
              FormatDouble(model.Evaluate(rate).mean_latency, 1),
              FormatDouble(run(rate, Workload::Uniform()).latency.Mean(), 1),
              FormatDouble(
                  run(rate, Workload::Hotspot(0.30)).latency.Mean(), 1),
              FormatDouble(
                  run(rate, Workload::ClusterLocal(0.80)).latency.Mean(),
                  1),
              FormatDouble(
                  run(rate, Workload::Permutation()).latency.Mean(),
                  1)});
  }
  std::printf("%s", t.ToString().c_str());
  std::printf(
      "\nobservations:\n"
      "  * a 30%% hot-spot receiver saturates its cluster's dispatcher far\n"
      "    below the uniform saturation point — the model cannot see this;\n"
      "  * cluster-local traffic (80%% in-cluster) bypasses the ECN1/ICN2\n"
      "    bottleneck and sustains much higher rates;\n"
      "  * a fixed permutation removes destination contention entirely and\n"
      "    is the gentlest inter-cluster workload.\n");
  return 0;
}
