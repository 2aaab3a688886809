#include "oracle/intra_cluster.h"

#include <cmath>
#include <vector>

#include "model/mg1.h"
#include "oracle/stage_recursion.h"
#include "topology/topology.h"

namespace coc {

IntraResult ComputeIntra(const SystemConfig& sys, int i, double lambda_g,
                         const Workload& workload, const ModelOptions& opts) {
  const ClusterConfig& cluster = sys.cluster(i);
  const Topology& topo = sys.icn1_topology(i);
  const LinkDistribution& links = topo.Links();
  const auto big_n_i = static_cast<double>(sys.NodesInCluster(i));
  const double u_i = workload.EffectiveU(sys, i);
  const MessageFormat& msg = sys.message();
  const double m_flits = workload.MeanFlits(msg);
  const double t_cn = cluster.icn1.TCn(msg.flit_bytes);
  const double t_cs = cluster.icn1.TCs(msg.flit_bytes);
  // Cluster i's per-node rate lambda_g^(i) = s_i lambda_g (s_i = 1 is exact,
  // preserving the seed arithmetic).
  const double node_rate = workload.NodeRate(lambda_g, i);

  IntraResult out;

  // Eq. (7): total message rate received by ICN1(i); Eq. (10): per-channel
  // rate under the paper's directed-endpoint counting convention
  // (ChannelsPerNode() = 4 n for the m-port n-tree).
  const double lambda_icn1 = big_n_i * node_rate * (1.0 - u_i);
  out.eta = lambda_icn1 * links.MeanLinks() /
            (topo.ChannelsPerNode() * big_n_i);

  // Eqs. (5),(13),(14): network latency averaged over journey lengths. A
  // d-link journey has K = d-1 stages; all interior stages are
  // switch-to-switch transfers of the same network.
  double t_in = 0;
  for (int d = 2; d <= links.max_links(); ++d) {
    const double p = links.P(d);
    if (p == 0.0) continue;
    const int stage_count = d - 1;
    const std::vector<StageSpec> interior(
        static_cast<std::size_t>(stage_count - 1),
        StageSpec{m_flits * t_cs, out.eta});
    const double t_d = StageRecursionT0(interior, m_flits * t_cn, out.eta,
                                        opts.include_last_stage_wait);
    t_in += p * t_d;
  }
  out.t_in = t_in;

  // Eqs. (15)-(18): the source's ICN1 injection channel as an M/G/1 queue.
  // Arrival rate: this node's intra-cluster message rate. Service: T_in with
  // the Draper-Ghosh variance approximation sigma = T_in - M t_cn (Eq. 17),
  // plus the workload's message-length variance scaled by the per-flit
  // traversal time (T_in is ~linear in the length).
  const double lambda_src =
      opts.source_queue_rate == ModelOptions::SourceQueueRate::kPerNode
          ? node_rate * (1.0 - u_i)
          : lambda_icn1;
  const double sigma = t_in - m_flits * t_cn;
  double service_var = sigma * sigma;
  const double flit_var = workload.FlitVariance(msg);
  if (flit_var > 0) {
    const double per_flit = t_in / m_flits;
    service_var += flit_var * per_flit * per_flit;
  }
  out.w_in = GG1Wait(lambda_src, t_in, service_var,
                     workload.arrival.ArrivalScv());
  out.source_rho = lambda_src * t_in;

  // Eq. (19): the tail flit pipelines over the d links behind the header:
  // d-2 switch links plus the two node links.
  double e_in = 0;
  for (int d = 2; d <= links.max_links(); ++d) {
    const double p = links.P(d);
    if (p == 0.0) continue;
    e_in += p * (static_cast<double>(d - 2) * t_cs + 2.0 * t_cn);
  }
  out.e_in = e_in;

  out.saturated = !std::isfinite(out.w_in);
  out.l_in = out.w_in + out.t_in + out.e_in;
  return out;
}

}  // namespace coc
