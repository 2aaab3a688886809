// Inter-cluster mean message latency (paper §3.2, Eqs. 20-39).
//
// An inter-cluster message from cluster i to cluster j crosses the merged
// wormhole unit ECN1(i) -> ICN2 -> ECN1(j): r links ascending in ECN1(i) to
// the concentrator tap, d_l links across ICN2, and v links from the
// dispatcher tap down to the destination, with r and v following the ECN1
// topologies' access distributions (Eq. 6 for the paper's trees) and d_l the
// ICN2 journey distribution. The concentrator and dispatcher additionally
// impose M/G/1 waiting (Eqs. 36-38).
//
// All traffic quantities (effective U, per-cluster rates, ECN1 load
// factors, destination-cluster weights, message-length moments) come from
// the shared Workload layer; the paper's uniform assumption reproduces
// Eqs. 22-23/35 bit for bit, while hot-spot workloads overlay the elevated
// per-link rates on the routes into the hot cluster and weight the Eq. (35)
// average by the actual destination-cluster distribution.
#pragma once

#include "model/model_options.h"
#include "model/results.h"
#include "system/system_config.h"
#include "topology/link_distribution.h"
#include "workload/workload.h"

namespace coc {



/// Evaluates Eqs. 20-34, 36-37 for the ordered pair (i, j), i != j.
/// `icn2_links` is the ICN2 journey link distribution (the topology's
/// closed form for exact-fit occupancy, empirical census otherwise).
InterPairResult ComputeInterPair(const SystemConfig& sys, int i, int j,
                                 double lambda_g,
                                 const LinkDistribution& icn2_links,
                                 const Workload& workload,
                                 const ModelOptions& opts);

/// Evaluates Eqs. 35, 38, 39 for cluster i. Destination clusters are
/// averaged arithmetically (the paper's Eq. 35) for unskewed workloads, and
/// by the workload's destination-cluster distribution under hot-spot.
InterResult ComputeInter(const SystemConfig& sys, int i, double lambda_g,
                         const LinkDistribution& icn2_links,
                         const Workload& workload, const ModelOptions& opts);

}  // namespace coc
