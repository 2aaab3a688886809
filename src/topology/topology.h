// Abstract network topology — the pluggable substrate under the analytical
// model, the wormhole simulator, and the system/config layers.
//
// The paper's validation hardwires every network (ICN1, ECN1, ICN2) to the
// m-port n-tree, but its latency machinery only ever consumes four things
// from a topology, and this interface captures exactly those:
//
//   * static structure  — node and channel counts, and each channel's kind
//     (node vs. switch link, for per-flit times) decoded from its id;
//   * journey statistics — the uniform-traffic distribution of links per
//     src -> dst journey (generalizing Eq. 6) and per node -> tap access
//     journey, both cached per instance so sweeps never recompute them,
//     and the journey census of a node prefix, for a partly filled ICN2;
//   * a routing oracle  — Route(src, dst) yielding the exact channel
//     sequence the wormhole engine replays;
//   * a concentrator tap — RouteToTap / RouteFromTap, the generalization of
//     the spine-tapped C/D attachment (DESIGN in README): inter-cluster
//     messages leave their ECN1 through the tap and re-enter the remote
//     ECN1 from it.
//
// Implementations: MPortNTree (the paper's fat tree), FullCrossbar (single
// switch), KAryMesh (k-ary d-dimensional mesh/torus, dimension-ordered
// routing), Dragonfly (two-level direct network).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topology/link_distribution.h"

namespace coc {

/// Directed channel kind; the owning network maps kinds to per-flit times
/// (node<->switch links use t_cn, switch<->switch links use t_cs; Eqs. 11-12).
enum class ChannelKind : std::uint8_t {
  kNodeToSwitch,  // injection: node -> switch
  kSwitchToNode,  // ejection: switch -> node
  kSwitchUp,      // tree: level l -> l+1; mesh: +direction hop
  kSwitchDown,    // tree: level l+1 -> l; mesh: -direction hop
};

/// Identifies one endpoint of a channel for structural checks and debugging.
struct Endpoint {
  bool is_node = false;
  int level = 0;  // switch level (1..n for trees; 1 for flat fabrics)
  std::int64_t index = 0;  // node id, or switch index within its level

  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

/// Static description of one directed channel.
struct ChannelInfo {
  ChannelKind kind;
  Endpoint from;
  Endpoint to;
};

/// Node cap shared by every family, checked before any size arithmetic that
/// could overflow (trees: 2 k^n; crossbars: 2N channels).
inline constexpr std::int64_t kMaxTopologyNodes = std::int64_t{1} << 22;

/// Immutable network topology. Instances are built once per distinct spec
/// (SystemConfig dedupes and shares them between the model and the
/// simulator) and all queries are const and thread-safe.
class Topology {
 public:
  virtual ~Topology() = default;

  /// Short human-readable description, e.g. "8-port 2-tree" or "mesh 4x4".
  virtual std::string Name() const = 0;

  /// Number of processing-node attachment points.
  virtual std::int64_t num_nodes() const = 0;

  /// Number of directed channels (node links + switch links).
  virtual std::int64_t num_channels() const = 0;

  /// Static metadata for a channel id in [0, num_channels()), decoded.
  virtual ChannelInfo Channel(std::int64_t id) const = 0;

  /// The layout every family shares: ids [0, N) are injection links (node i
  /// -> its switch), [N, 2N) ejection links, and [2N, num_channels()) switch
  /// links, so callers needing only the kind (the simulator's per-flit
  /// times) read it from these ranges.
  std::int64_t num_node_links() const { return 2 * num_nodes(); }

  /// Uniform-traffic distribution of links per src -> dst journey
  /// (generalizes Eq. 6). Cached per instance.
  virtual const LinkDistribution& Links() const = 0;

  /// Journeys among the node prefix [0, c), 2 <= c <= num_nodes(), where an
  /// ICN2's C concentrators sit: element d counts the ordered pairs of
  /// distinct nodes whose entropy-0 route crosses d links (Links() is the
  /// census at c = num_nodes(), normalized). Exact, and in closed form for
  /// every family but the dragonfly, which routes each pair.
  virtual std::vector<std::int64_t> PrefixJourneys(std::int64_t c) const = 0;

  /// Distribution of links of the access journey from a uniform node to the
  /// concentrator tap (the tree's spine ascent of r links). Cached.
  virtual const LinkDistribution& AccessLinks() const = 0;

  /// Routing oracle, allocation-free form: appends the exact channel
  /// sequence from src to dst to `out` (which is NOT cleared — callers
  /// compose multi-network paths by appending legs into one reused buffer).
  /// Appends nothing when src == dst. `entropy` may perturb path choice
  /// where the topology has freedom (tree ascent up-ports); entropy = 0 is
  /// the deterministic route and topologies without routing freedom ignore
  /// it. This is the virtual primitive; the vector-returning Route() below
  /// is a convenience wrapper.
  virtual void RouteInto(std::int64_t src, std::int64_t dst,
                         std::uint64_t entropy,
                         std::vector<std::int64_t>& out) const = 0;

  /// Appends the access route from `src` up to (and including arrival at)
  /// the concentrator tap; always appends at least one channel (the
  /// injection link).
  virtual void RouteToTapInto(std::int64_t src,
                              std::vector<std::int64_t>& out) const = 0;

  /// Appends the egress route from the concentrator tap down to `dst`;
  /// always appends at least one channel. RouteFromTap(x) re-enters the
  /// fabric exactly where RouteToTap(x) left it, so tap round trips are
  /// closed.
  virtual void RouteFromTapInto(std::int64_t dst,
                                std::vector<std::int64_t>& out) const = 0;

  /// Routing oracle: the exact channel sequence from src to dst. Empty when
  /// src == dst. Convenience wrapper over RouteInto (allocates the result).
  std::vector<std::int64_t> Route(std::int64_t src, std::int64_t dst,
                                  std::uint64_t entropy = 0) const {
    std::vector<std::int64_t> out;
    RouteInto(src, dst, entropy, out);
    return out;
  }

  /// Access route from `src` up to (and including arrival at) the
  /// concentrator tap; never empty (the injection link always counts).
  std::vector<std::int64_t> RouteToTap(std::int64_t src) const {
    std::vector<std::int64_t> out;
    RouteToTapInto(src, out);
    return out;
  }

  /// Egress route from the concentrator tap down to `dst`; never empty.
  std::vector<std::int64_t> RouteFromTap(std::int64_t dst) const {
    std::vector<std::int64_t> out;
    RouteFromTapInto(dst, out);
    return out;
  }

  /// Directed-channel endpoints per node under the paper's Eq. (10) counting
  /// convention (4n for an m-port n-tree): 2 * num_channels / num_nodes.
  /// The per-channel rate eta divides by ChannelsPerNode() * num_nodes.
  double ChannelsPerNode() const {
    return 2.0 * static_cast<double>(num_channels()) /
           static_cast<double>(num_nodes());
  }

 protected:
  /// Decodes a node-link id in [0, num_node_links()): the injection or
  /// ejection link of node id mod N, attached to level-1 switch `attach`.
  ChannelInfo NodeLink(std::int64_t id, std::int64_t attach) const {
    const std::int64_t n = num_nodes();
    const Endpoint node{true, 0, id < n ? id : id - n};
    const Endpoint sw{false, 1, attach};
    return id < n ? ChannelInfo{ChannelKind::kNodeToSwitch, node, sw}
                  : ChannelInfo{ChannelKind::kSwitchToNode, sw, node};
  }
};

}  // namespace coc
