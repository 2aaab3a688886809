// Intra-cluster mean message latency (paper §3.1, Eqs. 4-19), generalized
// over the shared Workload layer (effective U, per-cluster rates, two-moment
// message lengths). The default Workload reproduces the paper bit for bit.
#pragma once

#include "model/model_options.h"
#include "model/results.h"
#include "system/system_config.h"
#include "workload/workload.h"

namespace coc {


/// Evaluates Eqs. 4-19 for cluster `i` of `sys` at global rate dial lambda_g
/// under `workload` (cluster i's per-node rate is workload.NodeRate).
IntraResult ComputeIntra(const SystemConfig& sys, int i, double lambda_g,
                         const Workload& workload, const ModelOptions& opts);

}  // namespace coc
