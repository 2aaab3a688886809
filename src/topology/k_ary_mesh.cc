#include "topology/k_ary_mesh.h"

#include <algorithm>
#include <array>
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

/// One coordinate range [lo, hi) per dimension.
using Box = std::vector<std::array<int, 2>>;

/// Ordered coordinate pairs (a, b) of one k-wide dimension, a in `ra` and b
/// in `rb`, by distance: element t counts the pairs t hops apart. O(k), no
/// double loop: the pairs at offset s = b - a are the overlap of `ra` with
/// `rb` shifted down by s.
std::vector<std::int64_t> RangeDistanceCounts(int k, bool torus,
                                              std::array<int, 2> ra,
                                              std::array<int, 2> rb) {
  std::vector<std::int64_t> counts(static_cast<std::size_t>(k), 0);
  for (int s = rb[0] - ra[1] + 1; s < rb[1] - ra[0]; ++s) {
    const int d = s < 0 ? -s : s;
    counts[static_cast<std::size_t>(torus ? std::min(d, k - d) : d)] +=
        std::min(ra[1], rb[1] - s) - std::max(ra[0], rb[0] - s);
  }
  return counts;
}

std::vector<std::int64_t> Convolve(const std::vector<std::int64_t>& a,
                                   const std::vector<std::int64_t>& b) {
  std::vector<std::int64_t> out(a.size() + b.size() - 1, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == 0) continue;
    for (std::size_t j = 0; j < b.size(); ++j) {
      out[i + j] += a[i] * b[j];
    }
  }
  return out;
}

/// Ordered router pairs (x, y), x in box `a` and y in box `b`, by DOR hop
/// count: the convolution of the per-dimension distance counts.
std::vector<std::int64_t> BoxPairHops(int k, bool torus, const Box& a,
                                      const Box& b) {
  std::vector<std::int64_t> hops{1};
  for (std::size_t j = 0; j < a.size(); ++j) {
    hops = Convolve(hops, RangeDistanceCounts(k, torus, a[j], b[j]));
  }
  return hops;
}

/// Journeys among the routers of disjoint `boxes`: element H + 2 counts
/// the ordered pairs of distinct routers H hops apart (a journey of H
/// router hops crosses H + 2 links; H = 0 is the src == dst diagonal).
std::vector<std::int64_t> BoxJourneys(int k, bool torus,
                                      const std::vector<Box>& boxes) {
  std::vector<std::int64_t> out;
  for (const Box& a : boxes) {
    for (const Box& b : boxes) {
      const std::vector<std::int64_t> hops = BoxPairHops(k, torus, a, b);
      out.resize(std::max(out.size(), hops.size() + 2), 0);
      for (std::size_t h = 1; h < hops.size(); ++h) out[h + 2] += hops[h];
    }
  }
  return out;
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

std::vector<std::int64_t> KAryMesh::PrefixJourneys(std::int64_t c) const {
  // In base-radix digits [0, c) is one box per digit position j where c's
  // digit c_j > 0: the digits above j equal c's, digit j lies in [0, c_j)
  // and the lower digits are free. Position dims holds c's carry, so at
  // c = radix^dims the one box is the whole mesh.
  std::vector<Box> boxes;
  for (int j = 0; j <= dims_; ++j) {
    const int cj = Coord(c, j);
    if (cj == 0) continue;
    Box& box = boxes.emplace_back(static_cast<std::size_t>(dims_));
    for (int i = 0; i < dims_; ++i) {
      box[static_cast<std::size_t>(i)] =
          i > j ? std::array{Coord(c, i), Coord(c, i) + 1}
                : std::array{0, i == j ? cj : radix_};
    }
  }
  return BoxJourneys(radix_, torus_, boxes);
}

LinkDistribution KAryMesh::MakeLinkDistribution(int radix, int dims,
                                                bool torus) {
  const std::vector<std::int64_t> journeys =
      BoxJourneys(radix, torus && radix > 2,
                  {Box(static_cast<std::size_t>(dims), {0, radix})});
  return LinkDistribution(
      std::vector<double>(journeys.begin(), journeys.end()));
}

LinkDistribution KAryMesh::MakeAccessDistribution(int radix, int dims,
                                                  bool torus,
                                                  int anchor_coord) {
  const auto d = static_cast<std::size_t>(dims);
  const auto hop_counts =
      BoxPairHops(radix, torus && radix > 2, Box(d, {0, radix}),
                  Box(d, {anchor_coord, anchor_coord + 1}));
  // Access journeys cross dist(router, tap) + 1 links; the tap router's own
  // node contributes at r = 1 (mirroring the tree's nca == 0 -> r = 1 rule).
  std::vector<double> weights(hop_counts.size() + 1, 0.0);
  for (std::size_t h = 0; h < hop_counts.size(); ++h) {
    weights[h + 1] = static_cast<double>(hop_counts[h]);
  }
  return LinkDistribution(std::move(weights));
}

}  // namespace coc
