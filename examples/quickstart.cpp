// Quickstart: describe a heterogeneous cluster-of-clusters system, evaluate
// the analytical latency model at a few operating points, and cross-check
// one point against the discrete-event simulator.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "model/compiled_model.h"
#include "sim/coc_system_sim.h"
#include "system/system_config.h"

int main() {
  using namespace coc;

  // A small system: four clusters on 4-port switches — two shallow (n=1,
  // 4 nodes) and two deeper (n=2, 8 nodes). Fast intra-cluster networks,
  // slower inter-cluster access networks (the paper's Table 2 style).
  const NetworkCharacteristics fast{500.0, 0.01, 0.02};   // Net.1
  const NetworkCharacteristics slow{250.0, 0.05, 0.01};   // Net.2
  const MessageFormat message{/*length_flits=*/32, /*flit_bytes=*/256};

  std::vector<ClusterConfig> clusters = {
      {1, fast, slow}, {1, fast, slow}, {2, fast, slow}, {2, fast, slow}};
  const SystemConfig sys(/*m=*/4, clusters, /*icn2=*/fast, message);

  std::printf("system: %d clusters, %lld nodes total, ICN2 depth %d\n",
              sys.num_clusters(), static_cast<long long>(sys.TotalNodes()),
              sys.icn2_depth());
  for (int i = 0; i < sys.num_clusters(); ++i) {
    std::printf("  cluster %d: N_i=%lld  U^(i)=%.3f\n", i,
                static_cast<long long>(sys.NodesInCluster(i)),
                sys.OutgoingProbability(i));
  }

  // The analytical model: instant evaluation at any generation rate.
  CompiledModel model(sys);
  std::printf("\nanalytical mean message latency:\n");
  for (double rate : {1e-5, 1e-4, 5e-4, 1e-3}) {
    const ModelResult r = model.Evaluate(rate);
    if (r.saturated) {
      std::printf("  lambda_g=%.0e msg/us/node -> saturated\n", rate);
    } else {
      std::printf("  lambda_g=%.0e msg/us/node -> %.1f us\n", rate,
                  r.mean_latency);
    }
  }
  std::printf("analytical saturation rate: %.3g msg/us/node\n",
              model.SaturationRate(1e-1));

  // Cross-check one operating point against the flit-level simulator.
  CocSystemSim sim(sys);
  SimConfig cfg;
  cfg.lambda_g = 1e-4;
  cfg.warmup_messages = 1000;
  cfg.measured_messages = 10000;
  cfg.drain_messages = 1000;
  const SimResult sr = sim.Run(cfg);
  const double analysis = model.Evaluate(cfg.lambda_g).mean_latency;
  std::printf(
      "\nat lambda_g=1e-4: analysis %.1f us, simulation %.1f +/- %.1f us "
      "(%.1f%% error)\n",
      analysis, sr.latency.Mean(), sr.latency.HalfWidth95(),
      100.0 * (analysis - sr.latency.Mean()) / sr.latency.Mean());
  std::printf("  intra-cluster %.1f us, inter-cluster %.1f us\n",
              sr.intra_latency.Mean(), sr.inter_latency.Mean());
  return 0;
}
