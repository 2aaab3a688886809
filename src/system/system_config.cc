#include "system/system_config.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>

#include "common/deadline.h"

namespace coc {

TopologySpec ResolveIcn2Spec(std::optional<TopologySpec> spec, int m,
                             std::int64_t clusters) {
  TopologySpec icn2 = spec.value_or(TopologySpec::Tree(0, 0));
  if (icn2.type == TopologySpec::Type::kTree && icn2.n == 0) {
    // Auto-depth honors an explicitly overridden tree arity; degenerate
    // arities (k < 2) get depth 1 and fail MPortNTree's own validation.
    const int k = (icn2.m != 0 ? icn2.m : m) / 2;
    std::int64_t slots = 2 * k;
    int depth = 1;
    while (k >= 2 && slots < clusters) {
      slots *= k;
      ++depth;
    }
    icn2.n = depth;
  }
  return ResolveTopologySpec(icn2, m, /*default_depth=*/0,
                             /*fit_nodes=*/std::max<std::int64_t>(clusters, 2));
}

void CheckIcn2Capacity(const Topology& icn2, std::int64_t clusters) {
  if (icn2.num_nodes() < clusters) {
    throw std::invalid_argument(
        "ICN2 topology " + icn2.Name() + " has only " +
        std::to_string(icn2.num_nodes()) + " slots for " +
        std::to_string(clusters) + " clusters");
  }
}

/// Counted outside the lock; the first count to finish is kept.
struct SystemConfig::Icn2Census {
  std::mutex mu;
  std::unique_ptr<const LinkDistribution> links;  ///< guarded by mu
};

SystemConfig::SystemConfig(int m, std::vector<ClusterConfig> clusters,
                           NetworkCharacteristics icn2, MessageFormat message,
                           std::optional<TopologySpec> icn2_topo)
    : m_(m),
      clusters_(std::move(clusters)),
      icn2_(icn2),
      message_(message),
      icn2_census_(std::make_shared<Icn2Census>()) {
  if (m_ < 4 || m_ % 2 != 0) {
    throw std::invalid_argument("switch arity m must be even and >= 4");
  }
  if (clusters_.empty()) {
    throw std::invalid_argument("system needs at least one cluster");
  }
  icn2_.Validate();
  message_.Validate();

  // One immutable Topology per distinct resolved spec: clusters sharing a
  // spec share the instance and its cached link distributions, so model and
  // simulator sweeps never rebuild or re-derive them.
  std::map<std::string, std::shared_ptr<const Topology>> cache;
  auto build = [&cache](const TopologySpec& resolved) {
    const std::string key = resolved.ToString();
    auto it = cache.find(key);
    if (it != cache.end()) return it->second;
    auto topo = BuildTopology(resolved);
    cache.emplace(key, topo);
    return topo;
  };

  icn1_topos_.reserve(clusters_.size());
  ecn1_topos_.reserve(clusters_.size());
  cluster_sizes_.reserve(clusters_.size());
  cluster_bases_.reserve(clusters_.size());
  for (const auto& c : clusters_) {
    c.icn1.Validate();
    c.ecn1.Validate();
    const TopologySpec icn1_spec = ResolveTopologySpec(
        c.icn1_topo.value_or(TopologySpec::Tree(0, 0)), m_, c.n,
        /*fit_nodes=*/0);
    auto icn1 = build(icn1_spec);
    const std::int64_t size = icn1->num_nodes();
    const TopologySpec ecn1_spec = ResolveTopologySpec(
        c.ecn1_topo.value_or(icn1_spec), m_, c.n, /*fit_nodes=*/size);
    auto ecn1 = build(ecn1_spec);
    if (ecn1->num_nodes() != size) {
      throw std::invalid_argument(
          "cluster ECN1 topology (" + ecn1->Name() + ", " +
          std::to_string(ecn1->num_nodes()) + " nodes) must match its ICN1 (" +
          icn1->Name() + ", " + std::to_string(size) + " nodes)");
    }
    icn1_topos_.push_back(std::move(icn1));
    ecn1_topos_.push_back(std::move(ecn1));
    cluster_bases_.push_back(total_nodes_);
    cluster_sizes_.push_back(size);
    total_nodes_ += size;
  }

  // ICN2: its node slots host the C concentrator/dispatchers.
  const auto c_count = static_cast<std::int64_t>(clusters_.size());
  const TopologySpec icn2_spec = ResolveIcn2Spec(icn2_topo, m_, c_count);
  icn2_topo_ = build(icn2_spec);
  CheckIcn2Capacity(*icn2_topo_, c_count);
  icn2_depth_ =
      icn2_spec.type == TopologySpec::Type::kTree ? icn2_spec.n : 0;
  icn2_exact_fit_ = (icn2_topo_->num_nodes() == c_count);
}

double SystemConfig::OutgoingProbability(int i) const {
  if (total_nodes_ <= 1) return 0.0;
  const double ni = static_cast<double>(NodesInCluster(i));
  const double n = static_cast<double>(total_nodes_);
  return 1.0 - (ni - 1.0) / (n - 1.0);
}

int SystemConfig::ClusterOfNode(std::int64_t global_node) const {
  const auto it = std::upper_bound(cluster_bases_.begin(),
                                   cluster_bases_.end(), global_node);
  return static_cast<int>(it - cluster_bases_.begin()) - 1;
}

const LinkDistribution& SystemConfig::icn2_links(
    const Deadline* deadline) const {
  if (icn2_exact_fit_) return icn2_topo_->Links();
  {
    std::lock_guard<std::mutex> lock(icn2_census_->mu);
    if (icn2_census_->links) return *icn2_census_->links;
  }
  const Topology& topo = *icn2_topo_;
  const auto c = static_cast<std::int64_t>(clusters_.size());
  std::vector<double> weights(
      static_cast<std::size_t>(topo.Links().max_links()) + 1, 0.0);
  std::vector<std::int64_t> route;  // reused: RouteInto appends, never shrinks
  for (std::int64_t src = 0; src < c; ++src) {
    if (deadline != nullptr && deadline->Expired()) {
      deadline->Check("ICN2 census", std::to_string(src) + " of " +
                                         std::to_string(c) + " source rows");
    }
    for (std::int64_t dst = 0; dst < c; ++dst) {
      if (src == dst) continue;
      route.clear();
      topo.RouteInto(src, dst, /*entropy=*/0, route);
      weights[route.size()] += 1.0;
    }
  }
  if (c < 2) weights[2] = 1.0;  // degenerate single-cluster system
  auto links = std::make_unique<const LinkDistribution>(weights);
  std::lock_guard<std::mutex> lock(icn2_census_->mu);
  if (!icn2_census_->links) icn2_census_->links = std::move(links);
  return *icn2_census_->links;
}

SystemConfig SystemConfig::WithIcn2Topology(const TopologySpec& spec) const {
  return SystemConfig(m_, clusters_, icn2_, message_, spec);
}

}  // namespace coc
