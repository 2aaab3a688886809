#include "topology/k_ary_mesh.h"

#include <algorithm>
#include <stdexcept>

namespace coc {
namespace {

/// Validates radix, dims and radix^dims before the distributions (which
/// convolve dims times) are computed (throws std::invalid_argument); returns
/// radix so the constructor runs it first in the member-initializer list.
int ValidatedRadix(int radix, int dims) {
  if (radix < 2) throw std::invalid_argument("mesh radix must be >= 2");
  if (dims < 1) throw std::invalid_argument("mesh dims must be >= 1");
  std::int64_t routers = 1;
  for (int j = 0; j < dims; ++j) {
    routers *= radix;  // at most 2^22 * 2^31 here: cannot overflow
    if (routers > kMaxTopologyNodes) {
      throw std::invalid_argument("mesh too large (> 2^22 routers)");
    }
  }
  return radix;
}

/// Per-dimension coordinate-distance counts over ordered pairs (a, b) in
/// [0, k)^2: counts[t] = number of pairs at distance t.
std::vector<double> PairDistanceCounts(int k, bool torus) {
  std::vector<double> counts(static_cast<std::size_t>(k), 0.0);
  counts[0] = k;  // a == b
  if (torus) {
    for (int t = 1; t <= k / 2; ++t) {
      // Each a has two partners at Lee distance t, except the antipode
      // (one partner) when k is even and t == k/2.
      counts[static_cast<std::size_t>(t)] =
          (2 * t == k) ? k : 2.0 * k;
    }
  } else {
    for (int t = 1; t < k; ++t) {
      counts[static_cast<std::size_t>(t)] = 2.0 * (k - t);
    }
  }
  return counts;
}

/// Per-dimension distance-to-anchor counts over a in [0, k); `anchor` is the
/// tap's coordinate in this dimension (0 for the corner tap).
std::vector<double> AnchorDistanceCounts(int k, bool torus, int anchor) {
  std::vector<double> counts(static_cast<std::size_t>(k), 0.0);
  for (int a = 0; a < k; ++a) {
    const int direct = a > anchor ? a - anchor : anchor - a;
    const int t = torus ? std::min(direct, k - direct) : direct;
    counts[static_cast<std::size_t>(t)] += 1.0;
  }
  return counts;
}

std::vector<double> Convolve(const std::vector<double>& a,
                             const std::vector<double>& b) {
  std::vector<double> out(a.size() + b.size() - 1, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == 0.0) continue;
    for (std::size_t j = 0; j < b.size(); ++j) {
      out[i + j] += a[i] * b[j];
    }
  }
  return out;
}

std::vector<double> HopCounts(int radix, int dims, bool torus,
                              bool to_anchor, int anchor_coord = 0) {
  std::vector<double> counts =
      to_anchor ? AnchorDistanceCounts(radix, torus, anchor_coord)
                : PairDistanceCounts(radix, torus);
  for (int j = 1; j < dims; ++j) {
    counts = Convolve(counts, to_anchor
                                  ? AnchorDistanceCounts(radix, torus,
                                                         anchor_coord)
                                  : PairDistanceCounts(radix, torus));
  }
  return counts;
}

}  // namespace

KAryMesh::KAryMesh(int radix, int dims, bool torus, bool center_tap)
    : radix_(ValidatedRadix(radix, dims)),
      dims_(dims),
      torus_(torus && radix > 2),
      links_(MakeLinkDistribution(radix, dims, torus)),
      access_links_(MakeAccessDistribution(radix, dims, torus,
                                           center_tap ? radix / 2 : 0)) {
  pow_k_.resize(static_cast<std::size_t>(dims_) + 1);
  pow_k_[0] = 1;
  for (int j = 1; j <= dims_; ++j) {
    pow_k_[static_cast<std::size_t>(j)] =
        pow_k_[static_cast<std::size_t>(j - 1)] * radix_;
  }
  num_nodes_ = pow_k_[static_cast<std::size_t>(dims_)];
  // Meshes omit the edge routers' missing neighbors, so each direction
  // block holds one link per router that owns it.
  per_dir_ = torus_ ? num_nodes_ : (num_nodes_ / radix_) * (radix_ - 1);
  if (center_tap) {
    // Coordinate radix/2 in every dimension (the upper median for even
    // radix — any median minimizes the mean access distance).
    const int c0 = radix_ / 2;
    for (int j = 0; j < dims_; ++j) {
      tap_router_ += c0 * pow_k_[static_cast<std::size_t>(j)];
    }
  }
}

ChannelInfo KAryMesh::Channel(std::int64_t id) const {
  if (id < num_node_links()) return NodeLink(id, id % num_nodes_);
  // Router links: per dimension a +direction block then a -direction block,
  // each indexed by the router's rank among those owning the link (the
  // inverse of LinkChannel).
  const std::int64_t block = (id - num_node_links()) / per_dir_;
  const std::int64_t rank = (id - num_node_links()) % per_dir_;
  const int dim = static_cast<int>(block / 2);
  const bool plus = block % 2 == 0;
  const std::int64_t step = pow_k_[static_cast<std::size_t>(dim)];
  std::int64_t r = rank;
  if (!torus_) {
    const std::int64_t digit = rank / step % (radix_ - 1);
    r = (rank / step / (radix_ - 1) * radix_ + digit + (plus ? 0 : 1)) *
            step +
        rank % step;
  }
  const int c = Coord(r, dim);
  const std::int64_t to =
      plus ? (c < radix_ - 1 ? r + step : r - (radix_ - 1) * step)
           : (c > 0 ? r - step : r + (radix_ - 1) * step);
  return ChannelInfo{plus ? ChannelKind::kSwitchUp : ChannelKind::kSwitchDown,
                     Endpoint{false, 1, r}, Endpoint{false, 1, to}};
}

std::string KAryMesh::Name() const {
  std::string name = torus_ ? "torus " : "mesh ";
  for (int j = 0; j < dims_; ++j) {
    if (j > 0) name += "x";
    name += std::to_string(radix_);
  }
  if (tap_router_ != 0) name += " (center tap)";
  return name;
}

std::int64_t KAryMesh::LinkChannel(std::int64_t router, int dim,
                                   int dir) const {
  const std::int64_t base =
      num_node_links() + (2 * dim + (dir > 0 ? 0 : 1)) * per_dir_;
  if (torus_) return base + router;
  // Rank of `router` among routers owning a link in this direction: collapse
  // the dim coordinate to a (radix-1)-wide digit ([0, k-1) for +, shifted
  // down one for -).
  const std::int64_t step = pow_k_[static_cast<std::size_t>(dim)];
  const std::int64_t lo = router % step;
  const std::int64_t c = (router / step) % radix_;
  const std::int64_t hi = router / (step * radix_);
  const std::int64_t digit = dir > 0 ? c : c - 1;
  return base + (hi * (radix_ - 1) + digit) * step + lo;
}

int KAryMesh::Distance(std::int64_t a, std::int64_t b) const {
  int d = 0;
  for (int j = 0; j < dims_; ++j) {
    const int ca = Coord(a, j), cb = Coord(b, j);
    const int direct = ca > cb ? ca - cb : cb - ca;
    d += torus_ ? std::min(direct, radix_ - direct) : direct;
  }
  return d;
}

void KAryMesh::AppendHops(std::int64_t from, std::int64_t to,
                          std::vector<std::int64_t>* path) const {
  std::int64_t cur = from;
  for (int j = 0; j < dims_; ++j) {
    const int target = Coord(to, j);
    const std::int64_t step = pow_k_[static_cast<std::size_t>(j)];
    while (Coord(cur, j) != target) {
      const int c = Coord(cur, j);
      int dir;
      if (torus_) {
        const int fwd = (target - c + radix_) % radix_;
        const int bwd = (c - target + radix_) % radix_;
        dir = fwd <= bwd ? +1 : -1;  // shorter way, ties toward +
      } else {
        dir = target > c ? +1 : -1;
      }
      path->push_back(LinkChannel(cur, j, dir));
      if (dir > 0) {
        cur = (c < radix_ - 1) ? cur + step : cur - (radix_ - 1) * step;
      } else {
        cur = (c > 0) ? cur - step : cur + (radix_ - 1) * step;
      }
    }
  }
}

void KAryMesh::RouteInto(std::int64_t src, std::int64_t dst,
                         std::uint64_t /*entropy*/,
                         std::vector<std::int64_t>& out) const {
  if (src == dst) return;
  out.reserve(out.size() + static_cast<std::size_t>(Distance(src, dst)) + 2);
  out.push_back(src);  // injection link id == node id
  AppendHops(src, dst, &out);
  out.push_back(num_nodes_ + dst);  // ejection link
}

void KAryMesh::RouteToTapInto(std::int64_t src,
                              std::vector<std::int64_t>& out) const {
  out.reserve(out.size() +
              static_cast<std::size_t>(Distance(src, tap_router_)) + 1);
  out.push_back(src);
  AppendHops(src, tap_router_, &out);
}

void KAryMesh::RouteFromTapInto(std::int64_t dst,
                                std::vector<std::int64_t>& out) const {
  out.reserve(out.size() +
              static_cast<std::size_t>(Distance(tap_router_, dst)) + 1);
  AppendHops(tap_router_, dst, &out);
  out.push_back(num_nodes_ + dst);
}

LinkDistribution KAryMesh::MakeLinkDistribution(int radix, int dims,
                                                bool torus) {
  const bool wraps = torus && radix > 2;
  const auto hop_counts = HopCounts(radix, dims, wraps, /*to_anchor=*/false);
  // A journey of H router hops crosses H + 2 links; distinct nodes always
  // sit on distinct routers, so H = 0 (the src == dst diagonal) is excluded.
  std::vector<double> weights(hop_counts.size() + 2, 0.0);
  for (std::size_t h = 1; h < hop_counts.size(); ++h) {
    weights[h + 2] = hop_counts[h];
  }
  return LinkDistribution(std::move(weights));
}

LinkDistribution KAryMesh::MakeAccessDistribution(int radix, int dims,
                                                  bool torus,
                                                  int anchor_coord) {
  const bool wraps = torus && radix > 2;
  const auto hop_counts =
      HopCounts(radix, dims, wraps, /*to_anchor=*/true, anchor_coord);
  // Access journeys cross dist(router, tap) + 1 links; the tap router's own
  // node contributes at r = 1 (mirroring the tree's nca == 0 -> r = 1 rule).
  std::vector<double> weights(hop_counts.size() + 1, 0.0);
  for (std::size_t h = 0; h < hop_counts.size(); ++h) {
    weights[h + 1] = hop_counts[h];
  }
  return LinkDistribution(std::move(weights));
}

}  // namespace coc
