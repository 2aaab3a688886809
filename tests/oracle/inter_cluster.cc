#include "oracle/inter_cluster.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "model/mg1.h"
#include "oracle/stage_recursion.h"
#include "topology/topology.h"

namespace coc {
namespace {

/// Eq. (23) reconstruction: the ICN2 message rate seen from pair (i, j).
/// `load_i`/`load_j` are the workload's per-cluster ECN1 load factors
/// (N U s for unskewed patterns, the symmetrized in+out load under
/// hot-spot), precomputed by the caller.
double LambdaIcn2(const SystemConfig& sys, int i, int j, double lambda_g,
                  double load_i, double load_j, const Workload& workload,
                  const ModelOptions& opts) {
  switch (opts.lambda_i2) {
    case ModelOptions::LambdaI2::kPairMean:
      return lambda_g * (load_i + load_j) / 2.0;
    case ModelOptions::LambdaI2::kHarmonic: {
      const double ni = static_cast<double>(sys.NodesInCluster(i));
      const double nj = static_cast<double>(sys.NodesInCluster(j));
      const double ui = workload.EffectiveU(sys, i) * workload.RateScale(i);
      const double uj = workload.EffectiveU(sys, j) * workload.RateScale(j);
      return lambda_g * ni * nj * (ui + uj) / (ni + nj);
    }
  }
  return 0;
}

/// ComputeInterPair with the pair's ECN1 load factors already resolved —
/// ComputeInter precomputes all clusters' factors once and fans them out.
InterPairResult ComputeInterPairWithLoads(const SystemConfig& sys, int i,
                                          int j, double lambda_g,
                                          const LinkDistribution& icn2_links,
                                          const Workload& workload,
                                          const ModelOptions& opts,
                                          double load_i, double load_j) {
  const ClusterConfig& ci = sys.cluster(i);
  const ClusterConfig& cj = sys.cluster(j);
  const MessageFormat& msg = sys.message();
  const double m_flits = workload.MeanFlits(msg);
  const double flit_var = workload.FlitVariance(msg);

  const double t_cs_ei = ci.ecn1.TCs(msg.flit_bytes);
  const double t_cn_ei = ci.ecn1.TCn(msg.flit_bytes);
  const double t_cs_ej = cj.ecn1.TCs(msg.flit_bytes);
  const double t_cn_ej = cj.ecn1.TCn(msg.flit_bytes);
  const double t_cs_i2 = sys.icn2().TCs(msg.flit_bytes);

  const double ni = static_cast<double>(sys.NodesInCluster(i));
  const double nj = static_cast<double>(sys.NodesInCluster(j));
  const double ui = workload.EffectiveU(sys, i);

  // Access-journey distributions of the two ECN1 networks (Eq. 6 for the
  // paper's trees), cached on the topology instances.
  const Topology& ecn1_i = sys.ecn1_topology(i);
  const Topology& ecn1_j = sys.ecn1_topology(j);
  const LinkDistribution& access_i = ecn1_i.AccessLinks();
  const LinkDistribution& access_j = ecn1_j.AccessLinks();

  // Eq. (22): message rate carried by the pair's ECN1 networks. The load
  // factors reduce to N_i U_i + N_j U_j for the paper's workload and embed
  // the hot-spot per-link overlay otherwise.
  const double lambda_ecn = lambda_g * (load_i + load_j);
  // Eq. (23) reconstruction (see ModelOptions::LambdaI2).
  const double lambda_i2 =
      LambdaIcn2(sys, i, j, lambda_g, load_i, load_j, workload, opts);

  // Eq. (24): per-channel rate of the ECN1 networks. Journeys in an ECN1 are
  // access journeys to/from the concentrator tap, hence the one-way mean.
  const double eta_e_src = lambda_ecn * access_i.MeanLinks() /
                           (ecn1_i.ChannelsPerNode() * ni);
  const double eta_e_dst =
      opts.ecn_eta == ModelOptions::EcnEta::kPerSide
          ? lambda_ecn * access_j.MeanLinks() /
                (ecn1_j.ChannelsPerNode() * nj)
          : eta_e_src;
  // Eq. (25): per-channel rate in ICN2. lambda_i2 is a per-concentrator
  // rate, so the node count cancels and only ChannelsPerNode() remains
  // (4 n_c for the paper's ICN2 tree).
  const double eta_i2_raw = lambda_i2 * icn2_links.MeanLinks() /
                            sys.icn2_topology().ChannelsPerNode();
  // Eqs. (27)-(28): relaxing factor for the bandwidth discontinuity at the
  // ECN1 -> ICN2 boundary (see ModelOptions::RelaxingFactor).
  double delta = 1.0;
  switch (opts.relaxing_factor) {
    case ModelOptions::RelaxingFactor::kInverseCapacity:
      delta = sys.icn2().beta() / ci.ecn1.beta();
      break;
    case ModelOptions::RelaxingFactor::kAsPrinted:
      delta = ci.ecn1.beta() / sys.icn2().beta();
      break;
    case ModelOptions::RelaxingFactor::kOff:
      break;
  }
  const double eta_i2 = eta_i2_raw * delta;

  InterPairResult out;

  // Eqs. (20)-(21), (26)-(30): average the merged pipeline's stage-0 service
  // time over the (r, v, d_l) journey distribution.
  double t_ex = 0;
  double e_ex = 0;
  for (int r = 1; r <= access_i.max_links(); ++r) {
    const double p_r = access_i.P(r);
    if (p_r == 0.0) continue;
    for (int v = 1; v <= access_j.max_links(); ++v) {
      const double p_v = access_j.P(v);
      if (p_v == 0.0) continue;
      for (int dl = 2; dl <= icn2_links.max_links(); ++dl) {
        const double p_l = icn2_links.P(dl);
        if (p_l == 0.0) continue;
        const double p = p_r * p_v * p_l;
        const int stage_count = r + dl + v - 1;  // K
        std::vector<StageSpec> interior;
        interior.reserve(static_cast<std::size_t>(stage_count - 1));
        for (int k = 0; k < stage_count - 1; ++k) {
          if (k < r) {
            interior.push_back(StageSpec{m_flits * t_cs_ei, eta_e_src});
          } else if (k < r + dl - 1) {
            interior.push_back(StageSpec{m_flits * t_cs_i2, eta_i2});
          } else {
            interior.push_back(StageSpec{m_flits * t_cs_ej, eta_e_dst});
          }
        }
        const double t0 = StageRecursionT0(interior, m_flits * t_cn_ej,
                                           eta_e_dst,
                                           opts.include_last_stage_wait);
        t_ex += p * t0;
        // Eq. (34): tail drain over the r + d_l + v links.
        e_ex += p * ((r - 1) * t_cs_ei + static_cast<double>(dl) * t_cs_i2 +
                     (v - 1) * t_cs_ej + t_cn_ei + t_cn_ej);
      }
    }
  }
  out.t_ex = t_ex;
  out.e_ex = e_ex;

  // Eq. (31): source-queue M/G/1 with the Eq. (17)-style variance
  // approximation (minimum first-stage service is M t_cn of ECN1(i)), plus
  // the workload's message-length variance scaled by the per-flit traversal
  // time (T_ex is ~linear in the length).
  const double lambda_src =
      opts.source_queue_rate == ModelOptions::SourceQueueRate::kPerNode
          ? workload.NodeRate(lambda_g, i) * ui
          : lambda_ecn;
  const double sigma = t_ex - m_flits * t_cn_ei;
  double service_var = sigma * sigma;
  if (flit_var > 0) {
    const double per_flit = t_ex / m_flits;
    service_var += flit_var * per_flit * per_flit;
  }
  const double arrival_scv = workload.arrival.ArrivalScv();
  out.w_ex = GG1Wait(lambda_src, t_ex, service_var, arrival_scv);

  // Eqs. (36)-(37): concentrate/dispatch buffer as M/G/1 with deterministic
  // service and the same style of variance approximation. kSupplyLimited
  // accounts for cut-through C/Ds whose ICN2 injection link is occupied at
  // the (possibly slower) ECN1 flit-supply rate. A non-degenerate
  // message-length distribution adds its variance at the per-flit service
  // rate.
  const double per_flit_cd =
      opts.condis_service == ModelOptions::CondisService::kIcn2Rate
          ? t_cs_i2
          : std::max(t_cs_i2, t_cs_ei);
  const double x_cd = m_flits * per_flit_cd;
  const double sigma_cd = m_flits * (t_cs_i2 - t_cs_ei);
  double var_cd = sigma_cd * sigma_cd;
  if (flit_var > 0) var_cd += flit_var * per_flit_cd * per_flit_cd;
  out.w_c = GG1Wait(lambda_i2, x_cd, var_cd, arrival_scv);
  out.condis_rho = lambda_i2 * x_cd;
  out.source_rho = lambda_src * t_ex;

  out.l_ex = out.w_ex + out.t_ex + out.e_ex;
  out.saturated = !std::isfinite(out.l_ex) || !std::isfinite(out.w_c);
  return out;
}

}  // namespace

InterPairResult ComputeInterPair(const SystemConfig& sys, int i, int j,
                                 double lambda_g,
                                 const LinkDistribution& icn2_links,
                                 const Workload& workload,
                                 const ModelOptions& opts) {
  return ComputeInterPairWithLoads(sys, i, j, lambda_g, icn2_links, workload,
                                   opts, workload.EcnLoadFactor(sys, i),
                                   workload.EcnLoadFactor(sys, j));
}

std::vector<double> EcnLoadFactors(const SystemConfig& sys,
                                   const Workload& workload) {
  std::vector<double> loads;
  for (int c = 0; c < sys.num_clusters(); ++c) {
    loads.push_back(workload.EcnLoadFactor(sys, c));
  }
  return loads;
}

InterResult ComputeInter(const SystemConfig& sys, int i, double lambda_g,
                         const LinkDistribution& icn2_links,
                         const Workload& workload, const ModelOptions& opts,
                         const std::vector<double>& loads) {
  InterResult out;
  const int c = sys.num_clusters();
  if (c < 2) return out;

  const double load_i = loads[static_cast<std::size_t>(i)];

  if (!workload.DestinationSkewed()) {
    // Eqs. (35) and (38): the paper's arithmetic averages over destination
    // clusters (kept verbatim so the uniform workload is bit-identical).
    double l_ex_sum = 0;
    double w_d_sum = 0;
    for (int j = 0; j < c; ++j) {
      if (j == i) continue;
      const InterPairResult pair = ComputeInterPairWithLoads(
          sys, i, j, lambda_g, icn2_links, workload, opts, load_i,
          loads[static_cast<std::size_t>(j)]);
      l_ex_sum += pair.l_ex;
      w_d_sum += 2.0 * pair.w_c;  // concentrate + dispatch buffers
      out.max_condis_rho = std::max(out.max_condis_rho, pair.condis_rho);
      out.max_source_rho = std::max(out.max_source_rho, pair.source_rho);
      out.saturated = out.saturated || pair.saturated;
    }
    out.l_ex = l_ex_sum / (c - 1);
    out.w_d = w_d_sum / (c - 1);
  } else {
    // Skewed destinations (hot-spot): weight each destination cluster by the
    // probability an inter-cluster message actually lands there.
    double l_ex_sum = 0;
    double w_d_sum = 0;
    double w_sum = 0;
    for (int j = 0; j < c; ++j) {
      if (j == i) continue;
      const double w = workload.InterDestProbability(sys, i, j);
      const InterPairResult pair = ComputeInterPairWithLoads(
          sys, i, j, lambda_g, icn2_links, workload, opts, load_i,
          loads[static_cast<std::size_t>(j)]);
      l_ex_sum += w * pair.l_ex;
      w_d_sum += w * 2.0 * pair.w_c;
      w_sum += w;
      out.max_condis_rho = std::max(out.max_condis_rho, pair.condis_rho);
      out.max_source_rho = std::max(out.max_source_rho, pair.source_rho);
      out.saturated = out.saturated || (pair.saturated && w > 0);
    }
    out.l_ex = w_sum > 0 ? l_ex_sum / w_sum : 0.0;
    out.w_d = w_sum > 0 ? w_d_sum / w_sum : 0.0;
  }
  out.l_out = out.l_ex + out.w_d;  // Eq. (39)
  return out;
}

}  // namespace coc
