// Top-level analytical latency model — the paper's primary contribution.
//
// Combines the intra-cluster (§3.1) and inter-cluster (§3.2) components:
//   l^(i)    = U^(i) L_out^(i) + (1 - U^(i)) L_in^(i)          (Eq. 1)
//   Latency  = sum_i (N_i / N) l^(i)                           (Eq. 3)
// The model is a fixed algebraic evaluation per operating point (no
// iteration), valid below saturation; saturated points report +infinity.
//
// Traffic comes from the shared Workload layer: the default Workload is the
// paper's assumption 2 and reproduces the seed outputs bit for bit, while
// cluster-local, hot-spot and heterogeneous per-cluster-rate workloads
// generalize Eqs. 2, 22-23 and 35 (the Eq. 3 cluster weights become message
// shares N_i s_i / sum N_c s_c, and a hot-spot workload adds the hot node's
// ejection-link M/G/1 wait to the journeys that target it).
#pragma once

#include <memory>
#include <vector>

#include "model/compiled_model.h"
#include "model/model_options.h"
#include "model/results.h"
#include "system/system_config.h"
#include "workload/workload.h"

namespace coc {



/// Evaluates the analytical model for a fixed system over generation rates.
/// This is the directly-equation-shaped statement of the paper, kept as a
/// test oracle: production code evaluates CompiledModel
/// (model/compiled_model.h), which must stay bit-identical to it and is much
/// faster.
class LatencyModel {
 public:
  explicit LatencyModel(const SystemConfig& sys, ModelOptions opts = {});
  /// Same, under a non-default workload (validated against `sys`).
  LatencyModel(const SystemConfig& sys, const Workload& workload,
               ModelOptions opts = {});

  const SystemConfig& system() const { return sys_; }
  const Workload& workload() const { return workload_; }
  const ModelOptions& options() const { return opts_; }

  /// Mean message latency and per-cluster decomposition at per-node
  /// generation rate lambda_g (messages per microsecond per node; cluster i
  /// generates at workload.RateScale(i) * lambda_g).
  ModelResult Evaluate(double lambda_g) const;

  /// Utilization of the system's queueing resources at one operating point
  /// and which of them binds (reaches rho = 1 first as lambda_g grows).
  BottleneckReport Bottleneck(double lambda_g) const;

  /// Largest rate (within relative tolerance) at which the model is still
  /// finite — the analytical saturation point, found by bisection over
  /// [0, upper_bound] (saturation_search.h; rho-certified midpoints skip
  /// their evaluation without changing the trajectory). When the model is
  /// still finite at upper_bound the bracket is expanded (rho-guided) until
  /// a saturated rate is found, instead of silently returning upper_bound;
  /// returns +infinity if the model never saturates (no loaded queue).
  double SaturationRate(double upper_bound, double rel_tol = 1e-3) const;

 private:
  /// Hot-spot overlay: M/G/1 waits of the hot node's two ejection links
  /// (ICN1 for same-cluster traffic, ECN1 for remote) at one operating
  /// point. All zeros for unskewed workloads.
  struct HotEject {
    double w_intra = 0;
    double w_inter = 0;
    double rho = 0;
  };
  HotEject HotEjectOverlay(double lambda_g) const;

  SystemConfig sys_;
  Workload workload_;
  ModelOptions opts_;
  LinkDistribution icn2_links_;
  /// Per-cluster Workload::EcnLoadFactor, computed once (rate-invariant).
  std::vector<double> ecn_loads_;
};

}  // namespace coc
