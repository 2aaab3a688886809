// Capacity planning: given a target per-node message rate and a latency
// budget, find the cheapest system organization that meets both — the kind
// of question the DAS-2 / LLNL-style deployments in the paper's §2 face.
//
// Uses the analytical model as the search oracle (thousands of evaluations
// in milliseconds) and validates the chosen design with one simulation.
#include <cstdio>
#include <vector>

#include "common/table.h"
#include "model/compiled_model.h"
#include "sim/coc_system_sim.h"
#include "topology/m_port_n_tree.h"
#include "system/system_config.h"

namespace {

// Builds a homogeneous organization: `c` clusters of depth `n` on m-port
// switches, Table 2 networks.
coc::SystemConfig Organization(int m, int c, int n) {
  std::vector<coc::ClusterConfig> clusters(
      static_cast<std::size_t>(c),
      coc::ClusterConfig{n, coc::Net1(), coc::Net2()});
  return coc::SystemConfig(m, std::move(clusters), coc::Net1(),
                           coc::MessageFormat{32, 256});
}

}  // namespace

int main() {
  using namespace coc;
  const double target_rate = 2.5e-4;   // msgs/us per node the app will offer
  const double latency_budget = 120.0; // us mean message latency allowed
  const std::int64_t needed_nodes = 200;

  std::printf("capacity planning: >= %lld nodes, lambda_g = %.1e, "
              "mean latency <= %.0f us\n\n",
              static_cast<long long>(needed_nodes), target_rate,
              latency_budget);

  Table t({"organization", "nodes", "switches", "latency@target",
           "headroom", "verdict"});
  struct Candidate {
    int m, c, n;
  };
  const Candidate candidates[] = {
      {4, 16, 3},  // many small clusters
      {4, 8, 4},   // fewer, deeper clusters
      {8, 8, 2},   // fat switches, shallow trees
      {8, 4, 3},   // fat switches, few big clusters
      {8, 32, 1},  // maximal spread
  };
  const SystemConfig* chosen = nullptr;
  static std::vector<SystemConfig> keep;
  keep.reserve(std::size(candidates));
  for (const Candidate& c : candidates) {
    keep.push_back(Organization(c.m, c.c, c.n));
    const SystemConfig& sys = keep.back();
    CompiledModel model(sys);
    const auto r = model.Evaluate(target_rate);
    const double sat = model.SaturationRate(5e-3);
    const bool fits = sys.TotalNodes() >= needed_nodes && !r.saturated &&
                      r.mean_latency <= latency_budget;
    std::int64_t switches = 0;
    // Cost proxy: switches across all ICN1+ECN1 trees plus the ICN2.
    // (Each cluster owns two trees of its own depth.)
    {
      const MPortNTree per_cluster(sys.m(), sys.cluster(0).n);
      const MPortNTree icn2(sys.m(), sys.icn2_depth());
      switches = 2 * sys.num_clusters() * per_cluster.num_switches() +
                 icn2.num_switches();
    }
    t.AddRow({"m=" + std::to_string(c.m) + " C=" + std::to_string(c.c) +
                  " n=" + std::to_string(c.n),
              std::to_string(sys.TotalNodes()), std::to_string(switches),
              r.saturated ? "saturated" : FormatDouble(r.mean_latency, 1),
              FormatDouble(sat / target_rate, 2) + "x",
              fits ? "OK" : "reject"});
    if (fits && chosen == nullptr) chosen = &sys;
  }
  std::printf("%s", t.ToString().c_str());

  if (chosen != nullptr) {
    std::printf("\nvalidating the first fitting organization by simulation:\n");
    CocSystemSim sim(*chosen);
    SimConfig cfg;
    cfg.lambda_g = target_rate;
    cfg.warmup_messages = 1000;
    cfg.measured_messages = 10000;
    cfg.drain_messages = 1000;
    const auto r = sim.Run(cfg);
    std::printf("  simulated mean latency %.1f us (budget %.0f): %s\n",
                r.latency.Mean(), latency_budget,
                r.latency.Mean() <= latency_budget ? "PASS" : "FAIL");
  } else {
    std::printf("\nno candidate satisfies the requirements.\n");
  }
  return 0;
}
