// CompiledModel construction and evaluation.
//
// Bit-identity discipline: every lambda-dependent expression below must
// reproduce LatencyModel's operation order and associativity exactly (IEEE
// doubles are not associative). Precomputed constants are only ever the
// value of the *identical* subexpression the reference path computes — e.g.
// x_cs = M * t_cs, eta_div = ChannelsPerNode() * N_i — never a reassociated
// form. The suffix-sharing chains work because StageRecursionT0 carries a
// single wait_suffix scalar backward: the chain state after j steps is, bit
// for bit, the state a from-scratch recursion of a j-interior-stage journey
// reaches, so one pass emits every journey length's T_0. Sums are then
// accumulated in the reference loop order over the precomputed non-zero
// probability products.
#include "model/compiled_model.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <utility>

#include "common/status.h"
#include "model/mg1.h"
#include "topology/topology.h"

namespace coc {

LinkDistribution MakeIcn2LinkDistribution(const SystemConfig& sys) {
  const Topology& topo = sys.icn2_topology();
  if (sys.icn2_exact_fit()) {
    return topo.Links();
  }
  const auto c = static_cast<std::int64_t>(sys.num_clusters());
  std::vector<double> weights(
      static_cast<std::size_t>(topo.Links().max_links()) + 1, 0.0);
  std::vector<std::int64_t> route;  // reused: RouteInto appends, never shrinks
  for (std::int64_t src = 0; src < c; ++src) {
    for (std::int64_t dst = 0; dst < c; ++dst) {
      if (src == dst) continue;
      route.clear();
      topo.RouteInto(src, dst, /*entropy=*/0, route);
      weights[route.size()] += 1.0;
    }
  }
  if (c < 2) weights[2] = 1.0;  // degenerate single-cluster system
  return LinkDistribution(weights);
}

namespace {

// Class keys are raw byte strings: exact double bit patterns plus topology
// instance pointers. Equal key => every per-rate output is bit-identical.
void AppendBits(std::string& key, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  key.append(reinterpret_cast<const char*>(&bits), sizeof(bits));
}

void AppendPtr(std::string& key, const void* p) {
  const auto bits = reinterpret_cast<std::uintptr_t>(p);
  key.append(reinterpret_cast<const char*>(&bits), sizeof(bits));
}

bool BitsEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// One deadline probe; the progress note is formatted only once a probe
/// finds the deadline passed, which it then stays, so Check throws.
void CheckDeadline(const Deadline* deadline, const char* stage,
                   std::size_t done, const char* unit) {
  if (deadline != nullptr && deadline->Expired()) {
    deadline->Check(stage, std::to_string(done) + " " + unit);
  }
}

}  // namespace

CompiledModel::CompiledModel(const SystemConfig& sys, ModelOptions opts,
                             const Deadline* deadline)
    : sys_(sys), opts_(opts) {
  CompileFrom(nullptr, deadline);
}

CompiledModel::CompiledModel(const SystemConfig& sys, const Workload& workload,
                             ModelOptions opts, const Deadline* deadline)
    : sys_(sys), workload_(workload), opts_(opts) {
  workload_.Validate(sys_);
  CompileFrom(nullptr, deadline);
}

CompiledModel::CompiledModel(const CompiledModel& prev, const Workload& next,
                             const Deadline* deadline)
    // Copying prev's SystemConfig shares its Topology instances (shared_ptr
    // members), so prev's pointer-keyed dedup tables stay valid here.
    : sys_(prev.sys_), workload_(next), opts_(prev.opts_) {
  workload_.Validate(sys_);
  CompileFrom(&prev, deadline);
}

CompiledModel CompiledModel::Rebind(const Workload& next,
                                    const Deadline* deadline) const {
  return CompiledModel(*this, next, deadline);
}

std::vector<double> CompiledModel::EcnLoads(const Deadline* deadline) {
  const auto c = static_cast<std::size_t>(sys_.num_clusters());
  // The Eq. (22) term N_c U_c s_c, in EcnLoadFactor's operation order.
  std::vector<double> out(c);
  for (std::size_t i = 0; i < c; ++i) {
    const int ci = static_cast<int>(i);
    out[i] = static_cast<double>(sys_.NodesInCluster(ci)) * u_[i] *
             workload_.RateScale(ci);
  }
  if (!skewed_) return out;

  // Hot-spot: InterDestProbability's masses and normalizers, in its order;
  // a run of equal masses shares its normalizer (compiled_model.h).
  const double n = static_cast<double>(sys_.TotalNodes());
  const auto h = static_cast<std::size_t>(
      sys_.ClusterOfNode(workload_.hotspot_node));
  const double f = workload_.hotspot_fraction;
  const auto repeats = [](const std::vector<double>& v, std::size_t i) {
    return i > 0 && BitsEqual(v[i], v[i - 1]);
  };
  hot_mass_.resize(c);
  hot_norm_.resize(c);
  for (std::size_t j = 0; j < c; ++j) {
    hot_mass_[j] = (1.0 - f) *
                   static_cast<double>(sys_.NodesInCluster(static_cast<int>(j))) /
                   (n - 1.0);
    if (j == h) hot_mass_[j] += f;
  }
  for (std::size_t i = 0; i < c; ++i) {
    if (repeats(hot_mass_, i)) {
      hot_norm_[i] = hot_norm_[i - 1];
      continue;
    }
    CheckDeadline(deadline, "model compilation", i, "hot-spot sums");
    double total = 0;
    for (std::size_t j = 0; j < c; ++j) {
      if (j != i) total += hot_mass_[j];
    }
    hot_norm_[i] = total;
  }
  // EcnLoadFactor's overlay: the mean of the outgoing load and the incoming
  // one, summed over sources in order; shared by a run of equal outgoing
  // rates and masses.
  std::vector<double> loads(c);
  double in = 0;
  for (std::size_t j = 0; j < c; ++j) {
    if (!repeats(out, j) || !repeats(hot_mass_, j)) {
      CheckDeadline(deadline, "model compilation", j, "hot-spot sums");
      in = 0;
      for (std::size_t i = 0; i < c; ++i) {
        if (i != j && hot_norm_[i] > 0) {
          in += out[i] * (hot_mass_[j] / hot_norm_[i]);
        }
      }
    }
    loads[j] = 0.5 * (out[j] + in);
  }
  return loads;
}

void CompiledModel::CompileFrom(const CompiledModel* prev,
                                const Deadline* deadline) {
  const int c = sys_.num_clusters();
  const MessageFormat& msg = sys_.message();
  m_flits_ = workload_.MeanFlits(msg);
  flit_var_ = workload_.FlitVariance(msg);
  arrival_scv_ = workload_.arrival.ArrivalScv();
  include_final_wait_ = opts_.include_last_stage_wait;
  src_per_node_ =
      opts_.source_queue_rate == ModelOptions::SourceQueueRate::kPerNode;
  skewed_ = workload_.DestinationSkewed();

  // Workload-invariant shared structure: the ICN2 census and the (r, v,
  // d_l) combo tables transfer outright; per-class reuse additionally needs
  // the message-length moments to match bit for bit, since every x_*
  // constant scales with them.
  if (prev != nullptr) {
    icn2_links_ = prev->icn2_links_;
    combo_cache_ = prev->combo_cache_;
  } else {
    icn2_links_ = std::make_shared<const LinkDistribution>(
        MakeIcn2LinkDistribution(sys_));
  }
  const bool reuse_classes = prev != nullptr &&
                             BitsEqual(m_flits_, prev->m_flits_) &&
                             BitsEqual(flit_var_, prev->flit_var_);
  u_.resize(static_cast<std::size_t>(c));
  weight_.resize(static_cast<std::size_t>(c));
  intra_class_of_.resize(static_cast<std::size_t>(c));

  double total_weight = 0;
  for (int i = 0; i < c; ++i) {
    total_weight += static_cast<double>(sys_.NodesInCluster(i)) *
                    workload_.RateScale(i);
  }
  for (int i = 0; i < c; ++i) {
    u_[static_cast<std::size_t>(i)] = workload_.EffectiveU(sys_, i);
    weight_[static_cast<std::size_t>(i)] =
        static_cast<double>(sys_.NodesInCluster(i)) * workload_.RateScale(i) /
        total_weight;
  }
  const std::vector<double> loads = EcnLoads(deadline);

  // --- intra-cluster classes (Eqs. 4-19 constants) -----------------------
  for (int i = 0; i < c; ++i) {
    const ClusterConfig& cluster = sys_.cluster(i);
    const Topology& topo = sys_.icn1_topology(i);
    const double t_cn = cluster.icn1.TCn(msg.flit_bytes);
    const double t_cs = cluster.icn1.TCs(msg.flit_bytes);
    const auto big_n = static_cast<double>(sys_.NodesInCluster(i));
    const double u_i = u_[static_cast<std::size_t>(i)];
    const double s_i = workload_.RateScale(i);

    std::string key;
    AppendPtr(key, &topo);
    AppendBits(key, t_cn);
    AppendBits(key, t_cs);
    AppendBits(key, big_n);
    AppendBits(key, u_i);
    AppendBits(key, s_i);
    const auto [it, inserted] = intra_keys_.emplace(
        std::move(key), static_cast<int>(intra_classes_.size()));
    if (inserted) {
      CheckDeadline(deadline, "model compilation", intra_classes_.size(),
                    "intra classes");
      const auto hit =
          reuse_classes ? prev->intra_keys_.find(it->first) : intra_keys_.end();
      if (reuse_classes && hit != prev->intra_keys_.end()) {
        // Equal key => every input of the class below is bit-identical, so
        // the compiled constants are too.
        intra_classes_.push_back(
            prev->intra_classes_[static_cast<std::size_t>(hit->second)]);
        ++rebind_stats_.intra_reused;
      } else {
        const LinkDistribution& links = topo.Links();
        IntraClass k;
        k.s = s_i;
        k.big_n = big_n;
        k.one_minus_u = 1.0 - u_i;
        k.mean_links = links.MeanLinks();
        k.eta_div = topo.ChannelsPerNode() * big_n;
        k.x_cs = m_flits_ * t_cs;
        k.x_cn = m_flits_ * t_cn;
        k.chain_steps = std::max(0, links.max_links() - 2);
        for (int d = 2; d <= links.max_links(); ++d) {
          k.p.push_back(links.P(d));
        }
        double e_in = 0;
        for (int d = 2; d <= links.max_links(); ++d) {
          const double p = links.P(d);
          if (p == 0.0) continue;
          e_in += p * (static_cast<double>(d - 2) * t_cs + 2.0 * t_cn);
        }
        k.e_in = e_in;
        intra_classes_.push_back(std::move(k));
        ++rebind_stats_.intra_rebuilt;
      }
    }
    intra_class_of_[static_cast<std::size_t>(i)] = it->second;
  }

  // --- ordered-pair classes (Eqs. 20-39 constants) -----------------------
  // A pair class is fully determined by its two per-cluster "side"
  // signatures (topology instance, per-flit times, beta, census, U, rate
  // scale, ECN load), so the pair key is sideSig(i) + sideSig(j). The C
  // signatures (fixed width) dedupe to K side ids, and each of the K x K
  // shapes some ordered pair i != j takes is interned from one such pair.
  sid_.resize(static_cast<std::size_t>(c));
  std::map<std::string, int> side_ids;
  std::vector<const std::string*> side_sig;  // side id -> its signature
  std::vector<int> first, second;  // side id -> its first two clusters
  std::string sig;
  for (int i = 0; i < c; ++i) {
    const ClusterConfig& ci = sys_.cluster(i);
    sig.clear();
    AppendPtr(sig, &sys_.ecn1_topology(i));
    AppendBits(sig, ci.ecn1.TCs(msg.flit_bytes));
    AppendBits(sig, ci.ecn1.TCn(msg.flit_bytes));
    AppendBits(sig, ci.ecn1.beta());
    AppendBits(sig, static_cast<double>(sys_.NodesInCluster(i)));
    AppendBits(sig, u_[static_cast<std::size_t>(i)]);
    AppendBits(sig, workload_.RateScale(i));
    AppendBits(sig, loads[static_cast<std::size_t>(i)]);
    const auto [it, fresh] =
        side_ids.emplace(sig, static_cast<int>(side_sig.size()));
    if (fresh) {
      side_sig.push_back(&it->first);
      first.push_back(i);
      second.push_back(-1);
    } else if (second[static_cast<std::size_t>(it->second)] < 0) {
      second[static_cast<std::size_t>(it->second)] = i;
    }
    sid_[static_cast<std::size_t>(i)] = it->second;
  }
  num_sides_ = static_cast<int>(side_sig.size());
  pair_class_of_sides_.assign(
      static_cast<std::size_t>(num_sides_) * static_cast<std::size_t>(num_sides_),
      -1);
  for (int a = 0; a < num_sides_; ++a) {
    for (int b = 0; b < num_sides_; ++b) {
      const int i = first[static_cast<std::size_t>(a)];
      const int j = a == b ? second[static_cast<std::size_t>(a)]
                           : first[static_cast<std::size_t>(b)];
      if (j < 0) continue;  // one cluster of shape a: no (a, a) pair
      CheckDeadline(deadline, "model compilation", pair_classes_.size(),
                    "pair classes");
      const int slot = static_cast<int>(pair_classes_.size());
      std::string key = *side_sig[static_cast<std::size_t>(a)];
      key += *side_sig[static_cast<std::size_t>(b)];
      const auto hit =
          reuse_classes ? prev->pair_keys_.find(key) : pair_keys_.end();
      if (reuse_classes && hit != prev->pair_keys_.end()) {
        pair_classes_.push_back(
            prev->pair_classes_[static_cast<std::size_t>(hit->second)]);
        ++rebind_stats_.pair_reused;
      } else {
        pair_classes_.push_back(BuildPairClass(i, j, loads));
        ++rebind_stats_.pair_rebuilt;
      }
      pair_keys_.emplace(std::move(key), slot);
      pair_class_of_sides_[static_cast<std::size_t>(a * num_sides_ + b)] =
          slot;
    }
  }
  for (const PairClass& k : pair_classes_) {
    const std::size_t table =
        static_cast<std::size_t>(k.r_max) * static_cast<std::size_t>(k.v_max) *
        static_cast<std::size_t>(std::max(0, k.d_max - 1));
    max_t0_size_ = std::max(max_t0_size_, table);
  }

  // --- hot-spot overlay constants ----------------------------------------
  if (skewed_) {
    const int h = sys_.ClusterOfNode(workload_.hotspot_node);
    hot_.hot_cluster = h;
    hot_.f = workload_.hotspot_fraction;
    hot_.s_hot = workload_.RateScale(h);
    hot_.nh_minus_1 = static_cast<double>(sys_.NodesInCluster(h) - 1);
    const double t_cn_icn1 = sys_.cluster(h).icn1.TCn(msg.flit_bytes);
    const double t_cn_ecn1 = sys_.cluster(h).ecn1.TCn(msg.flit_bytes);
    hot_.x_intra = m_flits_ * t_cn_icn1;
    hot_.x_inter = m_flits_ * t_cn_ecn1;
    hot_.var_intra = flit_var_ * t_cn_icn1 * t_cn_icn1;
    hot_.var_inter = flit_var_ * t_cn_ecn1 * t_cn_ecn1;
  }
}

CompiledModel::PairClass CompiledModel::BuildPairClass(
    int i, int j, const std::vector<double>& loads) {
  const ClusterConfig& ci = sys_.cluster(i);
  const ClusterConfig& cj = sys_.cluster(j);
  const MessageFormat& msg = sys_.message();
  const double t_cs_ei = ci.ecn1.TCs(msg.flit_bytes);
  const double t_cn_ei = ci.ecn1.TCn(msg.flit_bytes);
  const double t_cs_ej = cj.ecn1.TCs(msg.flit_bytes);
  const double t_cn_ej = cj.ecn1.TCn(msg.flit_bytes);
  const double t_cs_i2 = sys_.icn2().TCs(msg.flit_bytes);
  const Topology& ecn1_i = sys_.ecn1_topology(i);
  const Topology& ecn1_j = sys_.ecn1_topology(j);
  const LinkDistribution& access_i = ecn1_i.AccessLinks();
  const LinkDistribution& access_j = ecn1_j.AccessLinks();
  const LinkDistribution& icn2_links = *icn2_links_;

  PairClass k;
  k.sum_loads = loads[static_cast<std::size_t>(i)] +
                loads[static_cast<std::size_t>(j)];
  k.ni = static_cast<double>(sys_.NodesInCluster(i));
  k.nj = static_cast<double>(sys_.NodesInCluster(j));
  k.u_sum = workload_.EffectiveU(sys_, i) * workload_.RateScale(i) +
            workload_.EffectiveU(sys_, j) * workload_.RateScale(j);
  k.n_sum = k.ni + k.nj;
  k.acc_mean_i = access_i.MeanLinks();
  k.acc_mean_j = access_j.MeanLinks();
  k.eta_src_div = ecn1_i.ChannelsPerNode() * k.ni;
  k.eta_dst_div = ecn1_j.ChannelsPerNode() * k.nj;
  k.icn2_mean = icn2_links.MeanLinks();
  k.icn2_cpn = sys_.icn2_topology().ChannelsPerNode();
  k.delta = 1.0;
  switch (opts_.relaxing_factor) {
    case ModelOptions::RelaxingFactor::kInverseCapacity:
      k.delta = sys_.icn2().beta() / ci.ecn1.beta();
      break;
    case ModelOptions::RelaxingFactor::kAsPrinted:
      k.delta = ci.ecn1.beta() / sys_.icn2().beta();
      break;
    case ModelOptions::RelaxingFactor::kOff:
      break;
  }
  k.x_ei = m_flits_ * t_cs_ei;
  k.x_i2 = m_flits_ * t_cs_i2;
  k.x_ej = m_flits_ * t_cs_ej;
  k.x_cn_ej = m_flits_ * t_cn_ej;
  k.mfl_tcn_ei = m_flits_ * t_cn_ei;
  k.s_i = workload_.RateScale(i);
  k.u_i = workload_.EffectiveU(sys_, i);
  const double per_flit_cd =
      opts_.condis_service == ModelOptions::CondisService::kIcn2Rate
          ? t_cs_i2
          : std::max(t_cs_i2, t_cs_ei);
  k.x_cd = m_flits_ * per_flit_cd;
  const double sigma_cd = m_flits_ * (t_cs_i2 - t_cs_ei);
  k.var_cd = sigma_cd * sigma_cd;
  if (flit_var_ > 0) k.var_cd += flit_var_ * per_flit_cd * per_flit_cd;
  k.r_max = access_i.max_links();
  k.v_max = access_j.max_links();
  k.d_max = icn2_links.max_links();

  k.combos = GetPairCombos(i, j);
  k.e_ex = k.combos->e_ex;
  return k;
}

std::shared_ptr<const CompiledModel::PairCombos> CompiledModel::GetPairCombos(
    int i, int j) {
  const MessageFormat& msg = sys_.message();
  const Topology& ecn1_i = sys_.ecn1_topology(i);
  const Topology& ecn1_j = sys_.ecn1_topology(j);
  const double t_cs_ei = sys_.cluster(i).ecn1.TCs(msg.flit_bytes);
  const double t_cn_ei = sys_.cluster(i).ecn1.TCn(msg.flit_bytes);
  const double t_cs_ej = sys_.cluster(j).ecn1.TCs(msg.flit_bytes);
  const double t_cn_ej = sys_.cluster(j).ecn1.TCn(msg.flit_bytes);
  const double t_cs_i2 = sys_.icn2().TCs(msg.flit_bytes);

  // The combos depend only on the two ECN1 access censuses, the ICN2
  // census, and the per-flit times — the key covers every input of the loop
  // below, so cache hits (including hits carried over from a rebind source)
  // are bit-identical to a rebuild.
  std::string key;
  AppendPtr(key, &ecn1_i);
  AppendPtr(key, &ecn1_j);
  AppendBits(key, t_cs_ei);
  AppendBits(key, t_cn_ei);
  AppendBits(key, t_cs_ej);
  AppendBits(key, t_cn_ej);
  AppendBits(key, t_cs_i2);
  const auto [it, inserted] = combo_cache_.emplace(std::move(key), nullptr);
  if (!inserted) {
    ++rebind_stats_.combos_shared;
    return it->second;
  }

  // Non-zero (r, v, d_l) combinations, reference loop order; Eq. 34's tail
  // drain is rate-invariant and folds entirely into the compile step.
  const LinkDistribution& access_i = ecn1_i.AccessLinks();
  const LinkDistribution& access_j = ecn1_j.AccessLinks();
  const LinkDistribution& icn2_links = *icn2_links_;
  const int r_max = access_i.max_links();
  const int v_max = access_j.max_links();
  const int d_max = icn2_links.max_links();
  auto combos = std::make_shared<PairCombos>();
  double e_ex = 0;
  for (int r = 1; r <= r_max; ++r) {
    const double p_r = access_i.P(r);
    if (p_r == 0.0) continue;
    for (int v = 1; v <= v_max; ++v) {
      const double p_v = access_j.P(v);
      if (p_v == 0.0) continue;
      for (int dl = 2; dl <= d_max; ++dl) {
        const double p_l = icn2_links.P(dl);
        if (p_l == 0.0) continue;
        const double p = p_r * p_v * p_l;
        combos->idx.push_back(((r - 1) * v_max + (v - 1)) * (d_max - 1) +
                              (dl - 2));
        combos->p.push_back(p);
        e_ex += p * ((r - 1) * t_cs_ei + static_cast<double>(dl) * t_cs_i2 +
                     (v - 1) * t_cs_ej + t_cn_ei + t_cn_ej);
      }
    }
  }
  combos->e_ex = e_ex;
  it->second = std::move(combos);
  return it->second;
}

CompiledModel::HotEject CompiledModel::HotEjectOverlay(double lambda_g) const {
  HotEject out;
  if (!skewed_) return out;
  const double lambda_intra =
      hot_.f * (lambda_g * hot_.s_hot) * hot_.nh_minus_1;
  double remote_nodes_rate = 0;
  const int c = sys_.num_clusters();
  for (int cc = 0; cc < c; ++cc) {
    if (cc == hot_.hot_cluster) continue;
    remote_nodes_rate += (lambda_g * workload_.RateScale(cc)) *
                         static_cast<double>(sys_.NodesInCluster(cc));
  }
  const double lambda_inter = hot_.f * remote_nodes_rate;
  out.w_intra = GG1Wait(lambda_intra, hot_.x_intra, hot_.var_intra,
                        arrival_scv_);
  out.w_inter = GG1Wait(lambda_inter, hot_.x_inter, hot_.var_inter,
                        arrival_scv_);
  out.rho = std::max(lambda_intra * hot_.x_intra, lambda_inter * hot_.x_inter);
  return out;
}

IntraResult CompiledModel::EvaluateIntraClass(const IntraClass& k,
                                              double lambda_g) const {
  const double node_rate = lambda_g * k.s;
  IntraResult out;
  const double lambda_icn1 = k.big_n * node_rate * k.one_minus_u;
  out.eta = lambda_icn1 * k.mean_links / k.eta_div;

  // One suffix-shared backward chain: the state after j interior steps is
  // exactly the (j+2)-link journey's T_0.
  double t_in = 0;
  double t = k.x_cn;
  double wait = include_final_wait_ ? 0.5 * out.eta * t * t : 0.0;
  if (!k.p.empty() && k.p[0] != 0.0) t_in += k.p[0] * t;
  for (int step = 1; step <= k.chain_steps; ++step) {
    t = k.x_cs + wait;
    wait += 0.5 * out.eta * t * t;
    const double p = k.p[static_cast<std::size_t>(step)];
    if (p != 0.0) t_in += p * t;
  }
  out.t_in = t_in;

  const double lambda_src =
      src_per_node_ ? node_rate * k.one_minus_u : lambda_icn1;
  const double sigma = t_in - k.x_cn;
  double service_var = sigma * sigma;
  if (flit_var_ > 0) {
    const double per_flit = t_in / m_flits_;
    service_var += flit_var_ * per_flit * per_flit;
  }
  out.w_in = GG1Wait(lambda_src, t_in, service_var, arrival_scv_);
  out.source_rho = lambda_src * t_in;
  out.e_in = k.e_in;
  out.saturated = !std::isfinite(out.w_in);
  out.l_in = out.w_in + out.t_in + out.e_in;
  return out;
}

double CompiledModel::LambdaI2(const PairClass& k, double lambda_g) const {
  return opts_.lambda_i2 == ModelOptions::LambdaI2::kHarmonic
             ? lambda_g * k.ni * k.nj * k.u_sum / k.n_sum
             : lambda_g * k.sum_loads / 2.0;
}

InterPairResult CompiledModel::EvaluatePairClass(const PairClass& k,
                                                 double lambda_g,
                                                 std::vector<double>& t0) const {
  const double lambda_ecn = lambda_g * k.sum_loads;
  const double lambda_i2 = LambdaI2(k, lambda_g);
  const double eta_e_src = lambda_ecn * k.acc_mean_i / k.eta_src_div;
  const double eta_e_dst = opts_.ecn_eta == ModelOptions::EcnEta::kPerSide
                               ? lambda_ecn * k.acc_mean_j / k.eta_dst_div
                               : eta_e_src;
  const double eta_i2_raw = lambda_i2 * k.icn2_mean / k.icn2_cpn;
  const double eta_i2 = eta_i2_raw * k.delta;

  // Suffix-shared T_0 table: the recursion processes dst stages, then ICN2,
  // then src stages, so one dst chain (advancing across v), one ICN2 chain
  // per v (advancing across d_l), and one src chain per (v, d_l) emit T_0
  // for every (r, v, d_l) in O(R V D) steps.
  const int dsteps = k.d_max - 1;
  if (!k.combos->idx.empty()) {
    double wait_dst = include_final_wait_
                          ? 0.5 * eta_e_dst * k.x_cn_ej * k.x_cn_ej
                          : 0.0;
    for (int v = 1; v <= k.v_max; ++v) {
      double wait = wait_dst;
      for (int step = 1; step <= dsteps; ++step) {  // d_l = step + 1
        const double t_i2 = k.x_i2 + wait;
        wait += 0.5 * eta_i2 * t_i2 * t_i2;
        double w_src = wait;
        for (int r = 1; r <= k.r_max; ++r) {
          const double t_src = k.x_ei + w_src;
          w_src += 0.5 * eta_e_src * t_src * t_src;
          t0[static_cast<std::size_t>(((r - 1) * k.v_max + (v - 1)) * dsteps +
                                      (step - 1))] = t_src;
        }
      }
      const double t_dst = k.x_ej + wait_dst;
      wait_dst += 0.5 * eta_e_dst * t_dst * t_dst;
    }
  }

  double t_ex = 0;
  const PairCombos& combos = *k.combos;
  for (std::size_t n = 0; n < combos.idx.size(); ++n) {
    t_ex += combos.p[n] * t0[static_cast<std::size_t>(combos.idx[n])];
  }

  InterPairResult out;
  out.t_ex = t_ex;
  out.e_ex = k.e_ex;

  const double lambda_src =
      src_per_node_ ? (lambda_g * k.s_i) * k.u_i : lambda_ecn;
  const double sigma = t_ex - k.mfl_tcn_ei;
  double service_var = sigma * sigma;
  if (flit_var_ > 0) {
    const double per_flit = t_ex / m_flits_;
    service_var += flit_var_ * per_flit * per_flit;
  }
  out.w_ex = GG1Wait(lambda_src, t_ex, service_var, arrival_scv_);

  out.w_c = GG1Wait(lambda_i2, k.x_cd, k.var_cd, arrival_scv_);
  out.condis_rho = lambda_i2 * k.x_cd;
  out.source_rho = lambda_src * t_ex;

  out.l_ex = out.w_ex + out.t_ex + out.e_ex;
  out.saturated = !std::isfinite(out.l_ex) || !std::isfinite(out.w_c);
  return out;
}

InterResult CompiledModel::AggregateInter(int i,
                                          const Scratch& scratch) const {
  InterResult out;
  const int c = sys_.num_clusters();
  if (c < 2) return out;

  const int* pair_class = &pair_class_of_sides_[static_cast<std::size_t>(
      sid_[static_cast<std::size_t>(i)] * num_sides_)];
  const auto pair_to = [&](int j) -> const InterPairResult& {
    return scratch.pair_vals[static_cast<std::size_t>(
        pair_class[sid_[static_cast<std::size_t>(j)]])];
  };
  if (!skewed_) {
    double l_ex_sum = 0;
    double w_d_sum = 0;
    for (int j = 0; j < c; ++j) {
      if (j == i) continue;
      const InterPairResult& pair = pair_to(j);
      l_ex_sum += pair.l_ex;
      w_d_sum += 2.0 * pair.w_c;
      out.max_condis_rho = std::max(out.max_condis_rho, pair.condis_rho);
      out.max_source_rho = std::max(out.max_source_rho, pair.source_rho);
      out.saturated = out.saturated || pair.saturated;
    }
    out.l_ex = l_ex_sum / (c - 1);
    out.w_d = w_d_sum / (c - 1);
  } else {
    const double norm = hot_norm_[static_cast<std::size_t>(i)];
    double l_ex_sum = 0;
    double w_d_sum = 0;
    double w_sum = 0;
    for (int j = 0; j < c; ++j) {
      if (j == i) continue;
      const double w =
          norm > 0 ? hot_mass_[static_cast<std::size_t>(j)] / norm : 0.0;
      const InterPairResult& pair = pair_to(j);
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
  out.l_out = out.l_ex + out.w_d;
  return out;
}

void CompiledModel::EvaluateInto(double lambda_g, Scratch& scratch,
                                 ModelResult& result,
                                 const Deadline* deadline) const {
  // An invalid operating point would silently propagate NaN through every
  // closed form below; fail it as a typed model error instead.
  if (!std::isfinite(lambda_g) || lambda_g < 0) {
    throw ModelError("model evaluated at invalid rate lambda_g = " +
                     std::to_string(lambda_g) +
                     " (must be finite and >= 0)");
  }
  const int c = sys_.num_clusters();
  result.clusters.clear();
  result.clusters.reserve(static_cast<std::size_t>(c));
  result.saturated = false;

  const HotEject hot = HotEjectOverlay(lambda_g);

  scratch.t0.resize(max_t0_size_);
  scratch.intra_vals.resize(intra_classes_.size());
  for (std::size_t k = 0; k < intra_classes_.size(); ++k) {
    scratch.intra_vals[k] = EvaluateIntraClass(intra_classes_[k], lambda_g);
  }
  scratch.pair_vals.resize(pair_classes_.size());
  for (std::size_t k = 0; k < pair_classes_.size(); ++k) {
    scratch.pair_vals[k] =
        EvaluatePairClass(pair_classes_[k], lambda_g, scratch.t0);
  }

  // Eqs. 35/38 once per run of one side shape; the hot cluster is a run of
  // its own (compiled_model.h shows each cluster of a run gets these bits).
  double weighted = 0;
  InterResult inter;
  for (int i = 0; i < c; ++i) {
    if (i == 0 || sid_[static_cast<std::size_t>(i)] !=
                      sid_[static_cast<std::size_t>(i - 1)] ||
        i == hot_.hot_cluster || i - 1 == hot_.hot_cluster) {
      CheckDeadline(deadline, "model evaluation",
                    static_cast<std::size_t>(i), "clusters aggregated");
      inter = AggregateInter(i, scratch);
    }
    ClusterLatency cl;
    cl.u = u_[static_cast<std::size_t>(i)];
    cl.intra =
        scratch.intra_vals[static_cast<std::size_t>(intra_class_of_[static_cast<std::size_t>(i)])];
    cl.inter = inter;
    cl.blended = 0;
    if (cl.u > 0) cl.blended += cl.u * cl.inter.l_out;
    if (cl.u < 1) cl.blended += (1.0 - cl.u) * cl.intra.l_in;
    if (hot_.hot_cluster >= 0) {
      cl.blended +=
          hot_.f * (i == hot_.hot_cluster ? hot.w_intra : hot.w_inter);
    }
    weighted += weight_[static_cast<std::size_t>(i)] * cl.blended;
    result.saturated = result.saturated || !std::isfinite(cl.blended);
    result.clusters.push_back(cl);
  }
  result.mean_latency = weighted;
}

ModelResult CompiledModel::Evaluate(double lambda_g,
                                    const Deadline* deadline) const {
  Scratch scratch;
  ModelResult result;
  EvaluateInto(lambda_g, scratch, result, deadline);
  return result;
}

void CompiledModel::EvaluateMany(std::span<const double> rates,
                                 std::vector<ModelResult>& out) const {
  out.resize(rates.size());
  Scratch scratch;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    EvaluateInto(rates[i], scratch, out[i], nullptr);
  }
}

std::vector<ModelResult> CompiledModel::EvaluateMany(
    std::span<const double> rates) const {
  std::vector<ModelResult> out;
  EvaluateMany(rates, out);
  return out;
}

BottleneckReport CompiledModel::Bottleneck(double lambda_g,
                                           const Deadline* deadline) const {
  const ModelResult r = Evaluate(lambda_g, deadline);
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

double CompiledModel::SaturatedFrom() const {
  // A C/D wait reaches the verdict through a cluster that blends inter
  // traffic (U > 0) and, under hot-spot, weighs a destination (w_sum > 0);
  // the hot-node waits reach every cluster's blend.
  const auto sides = static_cast<std::size_t>(num_sides_);
  std::vector<char> counted(sides, 0);
  for (std::size_t i = 0; i < sid_.size(); ++i) {
    if (u_[i] > 0 && (!skewed_ || hot_norm_[i] > 0)) {
      counted[static_cast<std::size_t>(sid_[i])] = 1;
    }
  }
  // Each rho is the product MG1Wait tests against 1 and is monotone in
  // lambda_g, so bisecting the ordered bit patterns finds the first double.
  const auto saturated = [&](std::uint64_t bits) {
    const double x = std::bit_cast<double>(bits);
    for (std::size_t ab = 0; ab < pair_class_of_sides_.size(); ++ab) {
      const int k = pair_class_of_sides_[ab];
      if (k < 0 || !counted[ab / sides]) continue;
      const PairClass& pc = pair_classes_[static_cast<std::size_t>(k)];
      if (LambdaI2(pc, x) * pc.x_cd >= 1.0) return true;
    }
    return HotEjectOverlay(x).rho >= 1.0;
  };
  std::uint64_t lo = 0;  // lambda_g = 0 loads nothing
  std::uint64_t hi =
      std::bit_cast<std::uint64_t>(std::numeric_limits<double>::max());
  if (!saturated(hi)) return std::numeric_limits<double>::infinity();
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    (saturated(mid) ? hi : lo) = mid;
  }
  return std::bit_cast<double>(hi);
}

double CompiledModel::SaturationRate(double upper_bound, double rel_tol,
                                     const Deadline* deadline,
                                     int* probes) const {
  Scratch scratch;
  ModelResult r;
  int count = 0;
  const auto probe = [&](double lambda_g) {
    // Cooperative per-probe deadline: each bisection/expansion step costs
    // one full model evaluation, the natural check granularity.
    if (deadline != nullptr) {
      deadline->Check("saturation search",
                      std::to_string(count) + " probes completed");
    }
    ++count;
    EvaluateInto(lambda_g, scratch, r, deadline);
    double rho = HotEjectOverlay(lambda_g).rho;  // the max tracked rho
    for (const auto& cl : r.clusters) {
      rho = std::max({rho, cl.intra.source_rho, cl.inter.max_condis_rho,
                      cl.inter.max_source_rho});
    }
    return SaturationProbe{r.saturated, rho};
  };
  const double rate =
      SaturationSearch(probe, upper_bound, rel_tol, SaturatedFrom());
  if (probes != nullptr) *probes = count;
  return rate;
}

}  // namespace coc
