// Full crossbar: N processing nodes attached to one non-blocking switch.
//
// The degenerate-but-useful end of the topology spectrum: every distinct
// src -> dst journey is node -> switch -> node (2 links, one wormhole stage),
// so the link distribution is P(2) = 1 and the access journey to the
// concentrator tap — which sits on the switch itself — is always a single
// injection link, P(1) = 1. With 2N directed channels the Eq. (10) counting
// convention gives ChannelsPerNode() = 4, the n = 1 tree value, and indeed a
// FullCrossbar(2k) is latency-equivalent to an m-port 1-tree with m = 2k.
// Unlike the tree it accepts *any* node count >= 2, which makes it the
// universal ECN1 partner for cluster sizes no tree or mesh can hit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topology/topology.h"

namespace coc {

/// Immutable single-switch crossbar. Channel layout: id in [0, N) is node i's
/// injection link, [N, 2N) is node i's ejection link; there are no switch
/// links.
class FullCrossbar : public Topology {
 public:
  /// Throws std::invalid_argument for ports < 2 or more than 2^22 ports.
  explicit FullCrossbar(std::int64_t ports);

  std::string Name() const override {
    return "crossbar " + std::to_string(num_nodes_);
  }
  std::int64_t num_nodes() const override { return num_nodes_; }
  std::int64_t num_channels() const override { return 2 * num_nodes_; }
  ChannelInfo Channel(std::int64_t id) const override {
    return NodeLink(id, 0);
  }
  const LinkDistribution& Links() const override { return links_; }
  /// Every journey crosses 2 links.
  std::vector<std::int64_t> PrefixJourneys(std::int64_t c) const override {
    return {0, 0, c * (c - 1)};
  }
  const LinkDistribution& AccessLinks() const override {
    return access_links_;
  }

  void RouteInto(std::int64_t src, std::int64_t dst, std::uint64_t entropy,
                 std::vector<std::int64_t>& out) const override;
  void RouteToTapInto(std::int64_t src,
                      std::vector<std::int64_t>& out) const override;
  void RouteFromTapInto(std::int64_t dst,
                        std::vector<std::int64_t>& out) const override;

 private:
  std::int64_t num_nodes_;
  LinkDistribution links_;
  LinkDistribution access_links_;
};

}  // namespace coc
