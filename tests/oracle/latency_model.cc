#include "oracle/latency_model.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/status.h"
#include "model/mg1.h"
#include "oracle/inter_cluster.h"
#include "oracle/intra_cluster.h"
#include "model/saturation_search.h"
#include "topology/topology.h"

namespace coc {

LatencyModel::LatencyModel(const SystemConfig& sys, ModelOptions opts)
    : sys_(sys), opts_(opts), icn2_links_(MakeIcn2LinkDistribution(sys_)) {}

LatencyModel::LatencyModel(const SystemConfig& sys, const Workload& workload,
                           ModelOptions opts)
    : sys_(sys),
      workload_(workload),
      opts_(opts),
      icn2_links_(MakeIcn2LinkDistribution(sys_)) {
  workload_.Validate(sys_);
}

LatencyModel::HotEject LatencyModel::HotEjectOverlay(double lambda_g) const {
  HotEject out;
  if (!workload_.DestinationSkewed()) return out;
  // Under the hot-spot pattern a fraction f of every node's messages targets
  // the hot node, so its two ejection links (ICN1 for same-cluster sources,
  // ECN1 for remote ones) see Poisson streams far above any other link's and
  // become the binding resource the per-network mean rates cannot see. Model
  // each as an M/G/1 server with per-message service M t_cn of its network.
  const int h = sys_.ClusterOfNode(workload_.hotspot_node);
  const double f = workload_.hotspot_fraction;
  const MessageFormat& msg = sys_.message();
  const double mean_flits = workload_.MeanFlits(msg);
  const double flit_var = workload_.FlitVariance(msg);

  const double lambda_intra =
      f * workload_.NodeRate(lambda_g, h) *
      static_cast<double>(sys_.NodesInCluster(h) - 1);
  double remote_nodes_rate = 0;
  for (int c = 0; c < sys_.num_clusters(); ++c) {
    if (c == h) continue;
    remote_nodes_rate += workload_.NodeRate(lambda_g, c) *
                         static_cast<double>(sys_.NodesInCluster(c));
  }
  const double lambda_inter = f * remote_nodes_rate;

  const double t_cn_icn1 = sys_.cluster(h).icn1.TCn(msg.flit_bytes);
  const double t_cn_ecn1 = sys_.cluster(h).ecn1.TCn(msg.flit_bytes);
  const double x_intra = mean_flits * t_cn_icn1;
  const double x_inter = mean_flits * t_cn_ecn1;
  const double var_intra = flit_var * t_cn_icn1 * t_cn_icn1;
  const double var_inter = flit_var * t_cn_ecn1 * t_cn_ecn1;
  const double arrival_scv = workload_.arrival.ArrivalScv();
  out.w_intra = GG1Wait(lambda_intra, x_intra, var_intra, arrival_scv);
  out.w_inter = GG1Wait(lambda_inter, x_inter, var_inter, arrival_scv);
  out.rho = std::max(lambda_intra * x_intra, lambda_inter * x_inter);
  return out;
}

ModelResult LatencyModel::Evaluate(double lambda_g) const {
  // Same guard as CompiledModel::EvaluateInto: an invalid operating point is
  // a typed model error, not NaN propagation through the closed forms.
  if (!std::isfinite(lambda_g) || lambda_g < 0) {
    throw ModelError("model evaluated at invalid rate lambda_g = " +
                     std::to_string(lambda_g) +
                     " (must be finite and >= 0)");
  }
  ModelResult result;
  result.clusters.reserve(static_cast<std::size_t>(sys_.num_clusters()));

  const HotEject hot = HotEjectOverlay(lambda_g);
  const int hot_cluster = workload_.DestinationSkewed()
                              ? sys_.ClusterOfNode(workload_.hotspot_node)
                              : -1;

  // Eq. (3) weights: share of generated messages per cluster,
  // N_i s_i / sum_c N_c s_c (the plain N_i / N for homogeneous rates).
  double weighted = 0;
  double total_weight = 0;
  for (int i = 0; i < sys_.num_clusters(); ++i) {
    total_weight += static_cast<double>(sys_.NodesInCluster(i)) *
                    workload_.RateScale(i);
  }
  for (int i = 0; i < sys_.num_clusters(); ++i) {
    ClusterLatency cl;
    cl.u = workload_.EffectiveU(sys_, i);
    cl.intra = ComputeIntra(sys_, i, lambda_g, workload_, opts_);
    cl.inter = ComputeInter(sys_, i, lambda_g, icn2_links_, workload_, opts_);
    // Eq. (1). A component with zero traffic share cannot saturate the
    // blend (e.g. L_out in a single-cluster system where U = 0).
    cl.blended = 0;
    if (cl.u > 0) cl.blended += cl.u * cl.inter.l_out;
    if (cl.u < 1) cl.blended += (1.0 - cl.u) * cl.intra.l_in;
    if (hot_cluster >= 0) {
      // A fraction f of this cluster's messages queues at the hot node's
      // ejection link on top of the journey modeled above.
      cl.blended += workload_.hotspot_fraction *
                    (i == hot_cluster ? hot.w_intra : hot.w_inter);
    }
    weighted += static_cast<double>(sys_.NodesInCluster(i)) *
                workload_.RateScale(i) / total_weight * cl.blended;
    result.saturated = result.saturated || !std::isfinite(cl.blended);
    result.clusters.push_back(cl);
  }
  result.mean_latency = weighted;
  return result;
}

BottleneckReport LatencyModel::Bottleneck(double lambda_g) const {
  const ModelResult r = Evaluate(lambda_g);
  BottleneckReport report;
  for (const auto& cl : r.clusters) {
    report.condis_rho = std::max(report.condis_rho, cl.inter.max_condis_rho);
    report.inter_source_rho =
        std::max(report.inter_source_rho, cl.inter.max_source_rho);
    report.intra_source_rho =
        std::max(report.intra_source_rho, cl.intra.source_rho);
  }
  report.hot_eject_rho = HotEjectOverlay(lambda_g).rho;
  report.binding = "concentrator/dispatcher";
  if (report.inter_source_rho > report.condis_rho) {
    report.binding = "inter-cluster source queue";
  }
  if (report.intra_source_rho >
      std::max(report.condis_rho, report.inter_source_rho)) {
    report.binding = "intra-cluster source queue";
  }
  if (report.hot_eject_rho > std::max({report.condis_rho,
                                       report.inter_source_rho,
                                       report.intra_source_rho})) {
    report.binding = "hot-node ejection link";
  }
  return report;
}

double LatencyModel::SaturationRate(double upper_bound, double rel_tol) const {
  const auto probe = [this](double lambda_g) {
    const ModelResult r = Evaluate(lambda_g);
    double rho = HotEjectOverlay(lambda_g).rho;
    for (const auto& cl : r.clusters) {
      rho = std::max({rho, cl.intra.source_rho, cl.inter.max_condis_rho,
                      cl.inter.max_source_rho});
    }
    return SaturationProbe{r.saturated, rho};
  };
  return SaturationSearch(probe, upper_bound, rel_tol);
}

}  // namespace coc
