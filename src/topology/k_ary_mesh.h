// k-ary d-dimensional mesh / torus with dimension-ordered routing.
//
// radix^dims routers, one processing node per router. Neighboring routers
// along each dimension are joined by one directed channel per direction;
// the torus variant adds wrap-around links (for radix > 2 — a radix-2 wrap
// would duplicate the existing neighbor link, so radix-2 tori degenerate to
// meshes). Deterministic dimension-ordered routing (DOR): correct dimension
// 0 first, then 1, ..., stepping toward the destination coordinate (tori
// take the shorter way around, ties broken toward +). DOR is deadlock-free
// on meshes and, combined with this simulator's unbounded-source injection,
// serves as the standard baseline the paper's up*/down* tree routing is
// usually compared against.
//
// Journey statistics are exact, not sampled: the per-dimension coordinate
// distance distribution is closed-form and the total-hop distribution is the
// convolution across dimensions, computed once at construction (uniform
// ordered pairs of distinct nodes; a journey of H router hops crosses
// H + 2 links including injection and ejection). The concentrator tap sits
// at router 0 (all-zero coordinate) by default, so access journeys cross
// dist(router(src), tap) + 1 links — the mesh analogue of the tree's
// spine-tapped attachment. The center-anchored variant (TopologySpec
// `tap=center`) moves the tap to coordinate radix/2 in every dimension,
// roughly halving the mean access distance on meshes (tori are
// vertex-transitive, so their access distribution is anchor-invariant).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topology/topology.h"

namespace coc {

/// Immutable k-ary d-dimensional mesh (or torus). Channel layout:
/// [0, N) node injection, [N, 2N) node ejection, then per dimension a
/// +direction block followed by a -direction block.
class KAryMesh : public Topology {
 public:
  /// Throws std::invalid_argument for radix < 2, dims < 1, or more than
  /// 2^22 routers. `center_tap` anchors the C/D tap at the center router
  /// (coordinate radix/2 per dimension) instead of router 0.
  KAryMesh(int radix, int dims, bool torus, bool center_tap = false);

  int radix() const { return radix_; }
  int dims() const { return dims_; }
  /// Whether wrap-around links are present (torus with radix > 2).
  bool wraps() const { return torus_; }
  /// Router hosting the concentrator/dispatcher tap.
  std::int64_t tap_router() const { return tap_router_; }

  std::string Name() const override;
  std::int64_t num_nodes() const override { return num_nodes_; }
  std::int64_t num_channels() const override {
    return num_node_links() + 2 * dims_ * per_dir_;
  }
  ChannelInfo Channel(std::int64_t id) const override;
  const LinkDistribution& Links() const override { return links_; }
  /// The prefix in base-radix digits is at most dims boxes, whose pair
  /// counts convolve per-dimension range distances like Links().
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

  /// DOR hop count between two routers (Manhattan / Lee distance).
  int Distance(std::int64_t a, std::int64_t b) const;

 private:
  int Coord(std::int64_t router, int dim) const {
    return static_cast<int>((router / pow_k_[static_cast<std::size_t>(dim)]) %
                            radix_);
  }
  // Channel id of the directed link leaving `router` along `dim` in
  // direction +1 / -1 (must exist).
  std::int64_t LinkChannel(std::int64_t router, int dim, int dir) const;
  // Appends the DOR router-to-router hop sequence to `path`.
  void AppendHops(std::int64_t from, std::int64_t to,
                  std::vector<std::int64_t>* path) const;

  // Exact uniform-traffic distributions via per-dimension convolution.
  // `anchor_coord` is the tap's per-dimension coordinate (0 = corner).
  static LinkDistribution MakeLinkDistribution(int radix, int dims,
                                               bool torus);
  static LinkDistribution MakeAccessDistribution(int radix, int dims,
                                                 bool torus, int anchor_coord);

  int radix_, dims_;
  bool torus_;
  std::int64_t tap_router_ = 0;
  std::int64_t num_nodes_;
  std::int64_t per_dir_ = 0;  // links per direction block (per dim, sign)
  std::vector<std::int64_t> pow_k_;  // radix^0 .. radix^dims
  LinkDistribution links_;
  LinkDistribution access_links_;
};

}  // namespace coc
