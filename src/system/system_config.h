// Description of a heterogeneous cluster-of-clusters system (paper §2, Fig. 1).
//
// The system has C clusters. Cluster i owns two networks: ICN1(i) for
// intra-cluster traffic and ECN1(i) for inter-cluster access; a global
// network (ICN2) connects the per-cluster concentrator/dispatchers, which
// occupy its node slots. The paper builds every network as an m-port n-tree;
// here each network carries a pluggable TopologySpec (defaulting to the
// paper's trees), so clusters may mix topology families — the "heterogeneous"
// in the title extends from tree depths to network structure itself.
// SystemConfig resolves the specs, builds one immutable Topology per
// distinct resolved spec, and shares the instances (and their cached hop
// distributions) between the analytical model and the simulator.
//
// A SystemConfig is immutable, and its copies (every compiled model keeps
// one) share all of its data, the ICN2 census cell too: a reference count.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "system/network_characteristics.h"
#include "topology/link_distribution.h"
#include "topology/topology_spec.h"

namespace coc {

class Deadline;

/// Per-cluster description: tree depth, the characteristics of its two
/// networks (paper assumption 5: networks may differ per cluster), and
/// optional topology overrides.
struct ClusterConfig {
  ClusterConfig() = default;
  ClusterConfig(int n, NetworkCharacteristics icn1,
                NetworkCharacteristics ecn1,
                std::optional<TopologySpec> icn1_topo = std::nullopt,
                std::optional<TopologySpec> ecn1_topo = std::nullopt)
      : n(n),
        icn1(icn1),
        ecn1(ecn1),
        icn1_topo(std::move(icn1_topo)),
        ecn1_topo(std::move(ecn1_topo)) {}

  int n = 1;  ///< tree depth n_i for defaulted topologies
  NetworkCharacteristics icn1;  ///< intra-cluster network
  NetworkCharacteristics ecn1;  ///< inter-cluster access network
  /// ICN1 topology; unset = the paper's m-port n-tree with the system's m
  /// and this cluster's n. Defines the cluster's node count.
  std::optional<TopologySpec> icn1_topo;
  /// ECN1 topology; unset = the same spec as ICN1. Must resolve to the same
  /// node count as ICN1 (both attach every node of the cluster).
  std::optional<TopologySpec> ecn1_topo;
};

/// The ICN2 spec for `clusters` concentrators under switch arity `m`:
/// `spec` (unset = the paper's m-port tree), a tree's unset depth the
/// smallest with at least `clusters` slots. One rule for SystemConfig and
/// the config parser, which applies it before building the cluster list.
TopologySpec ResolveIcn2Spec(std::optional<TopologySpec> spec, int m,
                             std::int64_t clusters);
/// Throws std::invalid_argument unless `icn2` has a slot per cluster.
void CheckIcn2Capacity(const Topology& icn2, std::int64_t clusters);

/// Full system description plus derived quantities used by both the
/// analytical model and the simulator.
class SystemConfig {
 public:
  /// Validates, resolves topology specs, and precomputes sizes. Throws
  /// std::invalid_argument on malformed input (odd m, empty cluster list,
  /// non-positive rates, mismatched ICN1/ECN1 node counts...).
  /// `icn2_topo` unset = the paper's m-port tree with auto-derived depth.
  SystemConfig(int m, std::vector<ClusterConfig> clusters,
               NetworkCharacteristics icn2, MessageFormat message,
               std::optional<TopologySpec> icn2_topo = std::nullopt);

  int m() const { return s_->m; }
  int k() const { return s_->m / 2; }
  /// Number of clusters C.
  int num_clusters() const { return static_cast<int>(s_->clusters.size()); }
  const ClusterConfig& cluster(int i) const {
    return s_->clusters[static_cast<std::size_t>(i)];
  }
  const NetworkCharacteristics& icn2() const { return s_->icn2; }
  const MessageFormat& message() const { return s_->message; }

  /// Resolved topology instances. Clusters with identical resolved specs
  /// share one instance (and its cached link distributions).
  const Topology& icn1_topology(int i) const {
    return *s_->icn1_topos[static_cast<std::size_t>(i)];
  }
  const Topology& ecn1_topology(int i) const {
    return *s_->ecn1_topos[static_cast<std::size_t>(i)];
  }
  const Topology& icn2_topology() const { return *s_->icn2_topo; }

  /// Cluster size N_i — the node count of its ICN1 topology (2(m/2)^{n_i}
  /// for the default trees).
  std::int64_t NodesInCluster(int i) const {
    return s_->cluster_sizes[static_cast<std::size_t>(i)];
  }
  /// Total system size N = sum N_i.
  std::int64_t TotalNodes() const { return s_->total_nodes; }

  /// ICN2 tree depth n_c when the ICN2 topology is a tree: the smallest
  /// depth whose m-port n_c-tree has at least C node slots (the paper's
  /// exact-fit C = 2(m/2)^{n_c} for the validation organizations). Zero for
  /// non-tree ICN2 topologies.
  int icn2_depth() const { return s_->icn2_depth; }
  /// Whether C fills the ICN2 node slots exactly (the paper's assumption).
  /// Partial occupancy is allowed for exploratory configurations; the model
  /// then uses the exact journey census of the occupied slots instead of
  /// the closed-form distribution.
  bool icn2_exact_fit() const { return s_->icn2_exact_fit; }

  /// ICN2 journey distribution: the topology's closed form at an exact fit;
  /// otherwise the exact journey census of the occupied slots (averaged over
  /// sources), which degenerates to the closed form at full occupancy. The
  /// census routes all C (C - 1) ordered slot pairs once, on first use, and
  /// every copy of this SystemConfig reads that one count: the Engine's
  /// system entry, each model compiled or rebound from it, each sweep.
  /// `deadline` (optional) is probed once per source row; a trip throws
  /// DeadlineExceeded naming "ICN2 census" and caches nothing.
  const LinkDistribution& icn2_links(const Deadline* deadline = nullptr) const;

  /// U^(i), Eq. (2): probability a message from cluster i leaves the cluster
  /// (uniform destinations over the other N-1 nodes).
  double OutgoingProbability(int i) const;

  /// Global node numbering: cluster-major, i.e. node g belongs to the
  /// cluster whose [base, base+N_i) interval contains g.
  std::int64_t ClusterBase(int i) const {
    return s_->cluster_bases[static_cast<std::size_t>(i)];
  }
  /// Maps a global node id to its cluster index.
  int ClusterOfNode(std::int64_t global_node) const;

  /// This system rebuilt with a different global-network topology; clusters
  /// round-trip unchanged (they carry their own specs). The one override
  /// every consumer (CLI --icn2-topology, Scenario::icn2_override) shares.
  SystemConfig WithIcn2Topology(const TopologySpec& spec) const;

 private:
  /// Built once by the constructor, then read-only but for the census cell.
  struct State {
    int m = 0;
    std::vector<ClusterConfig> clusters;
    NetworkCharacteristics icn2;
    MessageFormat message;
    std::vector<std::shared_ptr<const Topology>> icn1_topos, ecn1_topos;
    std::shared_ptr<const Topology> icn2_topo;
    std::vector<std::int64_t> cluster_sizes, cluster_bases;
    std::int64_t total_nodes = 0;
    int icn2_depth = 0;
    bool icn2_exact_fit = false;
    /// The ICN2 census: counted outside the lock, the first count kept.
    mutable std::mutex census_mu;
    mutable std::unique_ptr<const LinkDistribution> census;  ///< census_mu
  };
  std::shared_ptr<const State> s_;
};

}  // namespace coc
