// Dragonfly topology (Kim, Dally, Scott, Abts, ISCA 2008): a two-level
// hierarchical direct network of `g` groups, each a fully connected clique
// of `a` routers with `p` processing nodes per router and `h` global
// channels per router. This implementation builds the canonical *balanced*
// dragonfly, g = a h + 1 groups, so every ordered group pair is joined by
// exactly one global channel per direction.
//
// Global wiring is the standard palmtree arrangement: number each group's
// a h global link slots q = r h + k (router r, router-local port k); slot q
// of group A connects to group (A + q + 1) mod g, landing on that group's
// slot a h - 1 - q. The pairing is an involution, so the wiring is
// consistent from both ends and each group reaches every other group.
//
// Routing:
//   * kMin      — minimal l-g-l routing: at most one local hop to the
//     router owning the global channel toward the destination group, the
//     global hop, at most one local hop to the destination router. Journeys
//     cross 2..5 links (terminal channels included).
//   * kValiant  — Valiant group-level randomization for inter-group
//     traffic: route minimally to a uniformly chosen intermediate group
//     (not the source or destination group), then minimally to the
//     destination; intra-group traffic stays minimal. Journeys cross up to
//     7 links. The intermediate group is selected by the `entropy` routing
//     argument mixed with a per-(src, dst) hash — entropy 0 gives one fixed
//     (but pair-dependent) choice, and stepping entropy over
//     [0, num_groups()-2) enumerates every eligible intermediate group
//     exactly once, which the exhaustive-census tests exploit.
//
// Journey statistics are exact and analytic: the minimal link-count census
// has closed-form class counts (same router / same group / 0-2 local
// detours around the global hop), and the Valiant census reduces to an
// O(g^2) sweep over group differences because the palmtree slot of a
// group pair depends only on their circular difference. The concentrator
// tap sits at router 0 of group 0; access journeys always use minimal
// routing (the C/D attachment is pinned, mirroring the tree's spine tap),
// so AccessLinks() is routing-mode invariant.
//
// Channel id layout: [0, N) node injection, [N, 2N) node ejection, then per
// group the a(a-1) intra-group local links (ChannelKind::kSwitchUp), then
// per group the a h global links (ChannelKind::kSwitchDown).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topology/topology.h"

namespace coc {

class Dragonfly : public Topology {
 public:
  enum class Routing : std::uint8_t { kMin, kValiant };
  /// PrefixJourneys' bound: the simulator's on ordered cluster pairs.
  static constexpr std::int64_t kMaxPrefixPairs = std::int64_t{1} << 20;

  /// Throws std::invalid_argument for a < 1, p < 1, h < 1, a*h > 4096
  /// (the O(g^2) Valiant census bound) or more than 2^22 nodes.
  Dragonfly(int a, int p, int h, Routing routing = Routing::kMin);

  int a() const { return a_; }
  int p() const { return p_; }
  int h() const { return h_; }
  /// Number of groups, g = a h + 1 (balanced dragonfly).
  int num_groups() const { return groups_; }
  Routing routing() const { return routing_; }
  /// Eligible Valiant intermediate groups per inter-group pair (g - 2;
  /// 0 when the dragonfly has only two groups and Valiant degenerates to
  /// minimal routing).
  int valiant_choices() const { return groups_ > 2 ? groups_ - 2 : 0; }

  std::string Name() const override;
  std::int64_t num_nodes() const override { return num_nodes_; }
  std::int64_t num_channels() const override {
    return global_base_ + static_cast<std::int64_t>(groups_) * a_ * h_;
  }
  ChannelInfo Channel(std::int64_t id) const override;
  const LinkDistribution& Links() const override { return links_; }
  /// Routes every ordered pair: the entropy-0 Valiant group is a hash of
  /// the pair. Throws std::invalid_argument, before routing any, above
  /// kMaxPrefixPairs ordered pairs.
  std::vector<std::int64_t> PrefixJourneys(std::int64_t c) const override;
  const LinkDistribution& AccessLinks() const override {
    return access_links_;
  }

  void RouteInto(std::int64_t src, std::int64_t dst, std::uint64_t entropy,
                 std::vector<std::int64_t>& out) const override;
  void RouteToTapInto(std::int64_t src,
                      std::vector<std::int64_t>& out) const override;
  void RouteFromTapInto(std::int64_t dst,
                        std::vector<std::int64_t>& out) const override;

  /// Minimal router-to-router hop count (0..3): 0 same router, 1 within a
  /// group, 1 + local detours across groups. Routers are globally indexed
  /// group * a + r.
  int MinDistance(std::int64_t router_a, std::int64_t router_b) const;

 private:
  // Slot of group `from`'s global channel toward group `to` (palmtree:
  // (to - from - 1) mod g, a bijection onto [0, a h) for to != from).
  int SlotToward(int from, int to) const {
    return (to - from - 1 + groups_) % groups_;
  }
  // Slot the palmtree pairs with `slot` on the far group: a h - 1 - slot.
  int PeerSlot(int slot) const { return groups_ - 2 - slot; }
  // Router (group-local index) owning global slot `slot`.
  int SlotRouter(int slot) const { return slot / h_; }

  std::int64_t LocalChannel(int group, int from_r, int to_r) const;
  std::int64_t GlobalChannel(int group, int slot) const;
  // Appends the minimal router-level hop sequence (no terminal channels).
  void AppendMinHops(int gs, int rs, int gd, int rd,
                     std::vector<std::int64_t>& out) const;

  // Exact analytic censuses over ordered distinct node pairs / nodes.
  static LinkDistribution MakeLinkDistribution(int a, int p, int h,
                                               Routing routing);
  static LinkDistribution MakeAccessDistribution(int a, int p, int h);

  int a_, p_, h_;
  int groups_;
  Routing routing_;
  std::int64_t num_routers_;
  std::int64_t num_nodes_;
  std::int64_t local_base_;   // first intra-group local channel id
  std::int64_t global_base_;  // first global channel id
  LinkDistribution links_;
  LinkDistribution access_links_;
};

}  // namespace coc
