// Result types of the analytical latency model: the per-cluster Eq. 4-39
// decomposition CompiledModel evaluates at one operating point, and the
// bottleneck summary. Plain values — every consumer (Engine reports, sweeps,
// the CLI, the tests' equation-shaped oracle) reads these fields.
#pragma once

#include <vector>

namespace coc {

/// Decomposition of the intra-cluster latency L_in = W_in + T_in + E_in
/// (Eq. 4) for one cluster at a given per-node generation rate.
struct IntraResult {
  double t_in = 0;   ///< mean network latency (Eq. 5)
  double w_in = 0;   ///< mean source-queue waiting time (Eq. 18); +inf if saturated
  double e_in = 0;   ///< mean tail-flit drain time (Eq. 19)
  double l_in = 0;   ///< total (Eq. 4); +inf if saturated
  double eta = 0;    ///< per-channel message rate in ICN1(i) (Eq. 10)
  double source_rho = 0;  ///< source-queue utilization lambda * T_in
  bool saturated = false;
};

/// Latency decomposition of the (i, j) cluster pair.
struct InterPairResult {
  double t_ex = 0;  ///< mean merged-network latency (Eq. 20)
  double w_ex = 0;  ///< mean source-queue waiting (Eq. 31); +inf if saturated
  double e_ex = 0;  ///< mean tail drain (Eqs. 33-34)
  double l_ex = 0;  ///< W_ex + T_ex + E_ex (Eq. 32)
  double w_c = 0;   ///< one concentrate/dispatch buffer wait (Eq. 37)
  double condis_rho = 0;  ///< C/D server utilization lambda_I2 * x_cd
  double source_rho = 0;  ///< source-queue utilization lambda * T_ex
  bool saturated = false;
};

/// Aggregated inter-cluster latency from cluster i's point of view.
struct InterResult {
  double l_ex = 0;  ///< Eq. (35): mean over destination clusters
  double w_d = 0;   ///< Eq. (38): mean concentrator+dispatcher waiting
  double l_out = 0; ///< Eq. (39); +inf if saturated
  double max_condis_rho = 0;  ///< hottest C/D utilization over partners
  double max_source_rho = 0;  ///< hottest source-queue utilization
  bool saturated = false;
};

/// Per-cluster latency decomposition at one operating point.
struct ClusterLatency {
  double u = 0;        ///< U^(i), Eq. (2) under the workload
  IntraResult intra;   ///< Eqs. 4-19
  InterResult inter;   ///< Eqs. 20-39
  double blended = 0;  ///< Eq. (1); +inf if a needed component saturated
};

/// Full model output at one generation rate.
struct ModelResult {
  std::vector<ClusterLatency> clusters;
  double mean_latency = 0;  ///< Eq. (3); +inf past saturation
  bool saturated = false;
};

/// Which queueing resource the model predicts saturates first — the
/// machinery behind the paper's §4 observation that "the inter-cluster
/// networks, especially ICN2, are the bottlenecks of the system".
struct BottleneckReport {
  double condis_rho = 0;        ///< hottest concentrator/dispatcher
  double inter_source_rho = 0;  ///< hottest ECN1 source queue
  double intra_source_rho = 0;  ///< hottest ICN1 source queue
  double hot_eject_rho = 0;     ///< hot node's ejection link (hot-spot only)
  /// One of "concentrator/dispatcher", "inter-cluster source queue",
  /// "intra-cluster source queue", "hot-node ejection link".
  const char* binding = "";
};

}  // namespace coc
