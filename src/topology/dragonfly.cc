#include "topology/dragonfly.h"

#include <stdexcept>
#include <string>

namespace coc {
namespace {

constexpr std::int64_t kMaxChannels = std::int64_t{1} << 23;
constexpr int kMaxGlobalSlots = 4096;  // a*h bound; census is O((a*h)^2)

/// Validates the dragonfly parameters before any member computation touches
/// them (throws std::invalid_argument); returns `a` so the constructor can
/// run it first in the member-initializer list.
int ValidatedA(int a, int p, int h) {
  if (a < 1 || p < 1 || h < 1) {
    throw std::invalid_argument("dragonfly requires a >= 1, p >= 1, h >= 1");
  }
  if (static_cast<std::int64_t>(a) * h > kMaxGlobalSlots) {
    throw std::invalid_argument("dragonfly too large (a*h > 4096)");
  }
  const std::int64_t groups = static_cast<std::int64_t>(a) * h + 1;
  const std::int64_t nodes = groups * a * p;
  if (nodes > kMaxTopologyNodes) {
    throw std::invalid_argument("dragonfly too large (> 2^22 nodes)");
  }
  // The intra-group cliques dominate the channel count for large a (the
  // a*h and node caps alone admit g*a*(a-1) in the billions).
  if (2 * nodes + groups * a * (a - 1) + groups * a * h > kMaxChannels) {
    throw std::invalid_argument("dragonfly too large (> 2^23 channels)");
  }
  return a;
}

/// SplitMix64-style finalizer over a (src, dst) pair: the per-pair seed of
/// the Valiant intermediate-group choice. Deterministic across platforms;
/// adding the routing `entropy` before the modulus makes entropy values
/// 0..g-3 enumerate every eligible intermediate group exactly once.
std::uint64_t MixPair(std::int64_t src, std::int64_t dst) {
  std::uint64_t z = static_cast<std::uint64_t>(src) * 0x9E3779B97F4A7C15ULL ^
                    (static_cast<std::uint64_t>(dst) + 0xD1B54A32D192ED03ULL);
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ULL;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z;
}

}  // namespace

Dragonfly::Dragonfly(int a, int p, int h, Routing routing)
    : a_(ValidatedA(a, p, h)),
      p_(p),
      h_(h),
      groups_(a * h + 1),
      routing_(routing),
      num_routers_(static_cast<std::int64_t>(groups_) * a),
      num_nodes_(num_routers_ * p),
      local_base_(2 * num_nodes_),
      global_base_(local_base_ +
                   static_cast<std::int64_t>(groups_) * a * (a - 1)),
      links_(MakeLinkDistribution(a, p, h, routing)),
      access_links_(MakeAccessDistribution(a, p, h)) {}

ChannelInfo Dragonfly::Channel(std::int64_t id) const {
  // Node links: node x attaches to router x / p.
  if (id < num_node_links()) return NodeLink(id, id % num_nodes_ / p_);
  if (id < global_base_) {
    // Intra-group local link (the inverse of LocalChannel): each router
    // owns a - 1 consecutive ids, one per other router of its clique.
    const std::int64_t from = (id - local_base_) / (a_ - 1);
    const std::int64_t t = (id - local_base_) % (a_ - 1);
    const std::int64_t r = from % a_;
    return ChannelInfo{ChannelKind::kSwitchUp, Endpoint{false, 1, from},
                       Endpoint{false, 1, from - r + (t >= r ? t + 1 : t)}};
  }
  // Global link in palmtree order (the inverse of GlobalChannel): group
  // gi's slot q reaches group (gi + q + 1) mod g on the peer's slot
  // a h - 1 - q.
  const int gi = static_cast<int>((id - global_base_) / (a_ * h_));
  const int q = static_cast<int>((id - global_base_) % (a_ * h_));
  const int peer = (gi + q + 1) % groups_;
  return ChannelInfo{
      ChannelKind::kSwitchDown,
      Endpoint{false, 1, static_cast<std::int64_t>(gi) * a_ + SlotRouter(q)},
      Endpoint{false, 1,
               static_cast<std::int64_t>(peer) * a_ +
                   SlotRouter(PeerSlot(q))}};
}

std::string Dragonfly::Name() const {
  std::string name = "dragonfly " + std::to_string(a_) + "," +
                     std::to_string(p_) + "," + std::to_string(h_);
  if (routing_ == Routing::kValiant) name += " (valiant)";
  return name;
}

std::int64_t Dragonfly::LocalChannel(int group, int from_r, int to_r) const {
  return local_base_ +
         (static_cast<std::int64_t>(group) * a_ + from_r) * (a_ - 1) +
         (to_r > from_r ? to_r - 1 : to_r);
}

std::int64_t Dragonfly::GlobalChannel(int group, int slot) const {
  return global_base_ + static_cast<std::int64_t>(group) * (a_ * h_) + slot;
}

void Dragonfly::AppendMinHops(int gs, int rs, int gd, int rd,
                              std::vector<std::int64_t>& out) const {
  if (gs == gd) {
    if (rs != rd) out.push_back(LocalChannel(gs, rs, rd));
    return;
  }
  const int q = SlotToward(gs, gd);
  const int gateway = SlotRouter(q);
  if (rs != gateway) out.push_back(LocalChannel(gs, rs, gateway));
  out.push_back(GlobalChannel(gs, q));
  const int entry = SlotRouter(PeerSlot(q));
  if (entry != rd) out.push_back(LocalChannel(gd, entry, rd));
}

void Dragonfly::RouteInto(std::int64_t src, std::int64_t dst,
                          std::uint64_t entropy,
                          std::vector<std::int64_t>& out) const {
  if (src == dst) return;
  out.reserve(out.size() + 7);  // worst case: Valiant l-g-l-g-l + terminals
  const std::int64_t rs = src / p_;
  const std::int64_t rd = dst / p_;
  const int gs = static_cast<int>(rs / a_);
  const int gd = static_cast<int>(rd / a_);
  const int ris = static_cast<int>(rs % a_);
  const int rid = static_cast<int>(rd % a_);
  out.push_back(src);  // injection link id == node id
  if (routing_ == Routing::kValiant && gs != gd && groups_ > 2) {
    // Uniform eligible intermediate group: map an index over [0, g-2) onto
    // the groups with gs and gd removed.
    const int lo = gs < gd ? gs : gd;
    const int hi = gs < gd ? gd : gs;
    int gi = static_cast<int>((MixPair(src, dst) + entropy) %
                              static_cast<std::uint64_t>(groups_ - 2));
    if (gi >= lo) ++gi;
    if (gi >= hi) ++gi;
    const int q1 = SlotToward(gs, gi);
    const int gateway = SlotRouter(q1);
    if (ris != gateway) out.push_back(LocalChannel(gs, ris, gateway));
    out.push_back(GlobalChannel(gs, q1));
    AppendMinHops(gi, SlotRouter(PeerSlot(q1)), gd, rid, out);
  } else {
    AppendMinHops(gs, ris, gd, rid, out);
  }
  out.push_back(num_nodes_ + dst);  // ejection link
}

void Dragonfly::RouteToTapInto(std::int64_t src,
                               std::vector<std::int64_t>& out) const {
  // Tap legs are pinned to the C/D attachment at router 0 of group 0 and
  // always route minimally, independent of the routing mode.
  out.reserve(out.size() + 4);
  const std::int64_t rs = src / p_;
  out.push_back(src);
  AppendMinHops(static_cast<int>(rs / a_), static_cast<int>(rs % a_), 0, 0,
                out);
}

void Dragonfly::RouteFromTapInto(std::int64_t dst,
                                 std::vector<std::int64_t>& out) const {
  out.reserve(out.size() + 4);
  const std::int64_t rd = dst / p_;
  AppendMinHops(0, 0, static_cast<int>(rd / a_), static_cast<int>(rd % a_),
                out);
  out.push_back(num_nodes_ + dst);
}

std::vector<std::int64_t> Dragonfly::PrefixJourneys(std::int64_t c) const {
  if (c * (c - 1) > kMaxPrefixPairs) {
    throw std::invalid_argument(
        "dragonfly ICN2 too large to count: " + std::to_string(c) +
        " occupied slots, " + std::to_string(c * (c - 1)) +
        " ordered slot pairs (> 2^20)");
  }
  std::vector<std::int64_t> counts(8, 0), route;
  for (std::int64_t src = 0; src < c; ++src) {
    for (std::int64_t dst = 0; dst < c; ++dst) {
      if (src == dst) continue;
      route.clear();
      RouteInto(src, dst, /*entropy=*/0, route);
      ++counts[route.size()];
    }
  }
  return counts;
}

int Dragonfly::MinDistance(std::int64_t router_a, std::int64_t router_b) const {
  if (router_a == router_b) return 0;
  const int ga = static_cast<int>(router_a / a_);
  const int gb = static_cast<int>(router_b / a_);
  if (ga == gb) return 1;
  const int q = SlotToward(ga, gb);
  return 1 + (static_cast<int>(router_a % a_) != SlotRouter(q) ? 1 : 0) +
         (SlotRouter(PeerSlot(q)) != static_cast<int>(router_b % a_) ? 1 : 0);
}

LinkDistribution Dragonfly::MakeLinkDistribution(int a, int p, int h,
                                                 Routing routing) {
  ValidatedA(a, p, h);
  const std::int64_t g = static_cast<std::int64_t>(a) * h + 1;
  const double pp = static_cast<double>(p) * p;
  const double am1 = a - 1;
  // Minimal journeys cross 2..5 links, Valiant up to 7.
  std::vector<double> w(8, 0.0);
  // Same router (p > 1): injection + ejection only.
  w[2] = static_cast<double>(g * a) * p * (p - 1);
  // Same group, different router: one local hop.
  w[3] = static_cast<double>(g) * a * am1 * pp;
  if (routing == Routing::kMin || g == 2) {
    // Inter-group minimal: every ordered group pair is joined by exactly one
    // global channel, so over its a^2 router pairs exactly one combination
    // (source = gateway, destination = entry) crosses 3 links, (a-1) on
    // each side cross 4, and (a-1)^2 cross 5.
    const double pairs = static_cast<double>(g) * static_cast<double>(g - 1);
    w[3] += pairs * pp;
    w[4] += pairs * 2.0 * am1 * pp;
    w[5] += pairs * am1 * am1 * pp;
  } else {
    // Valiant census, averaged uniformly over the g-2 eligible intermediate
    // groups. The palmtree slot of a group pair depends only on the circular
    // group difference d, so sweep (d, q1) instead of (gs, gd, gi):
    // q1 = slot gs->gi ranges over [0, g-1) minus d-1 (gi == gd), and the
    // slot gi->gd is determined by q1 + q2 = d - 2 (mod g). The two local
    // detours at the source and destination groups are independent
    // Bernoulli(1 - 1/a) over the uniform source/destination routers; the
    // detour inside the intermediate group (x2) is deterministic per triple.
    for (std::int64_t d = 1; d < g; ++d) {
      for (std::int64_t q1 = 0; q1 < g - 1; ++q1) {
        if (q1 == d - 1) continue;
        const std::int64_t q2 = ((d - 2 - q1) % g + g) % g;
        const int x2 = (g - 2 - q1) / h != q2 / h ? 1 : 0;
        const double scale =
            static_cast<double>(g) * pp / static_cast<double>(g - 2);
        w[static_cast<std::size_t>(4 + x2)] += scale;
        w[static_cast<std::size_t>(5 + x2)] += scale * 2.0 * am1;
        w[static_cast<std::size_t>(6 + x2)] += scale * am1 * am1;
      }
    }
  }
  return LinkDistribution(std::move(w));
}

LinkDistribution Dragonfly::MakeAccessDistribution(int a, int p, int h) {
  const int g = a * h + 1;
  // Access journeys cross 1 + min-distance(router, tap) links; the tap
  // router's own nodes contribute at r = 1 (mirroring the tree's
  // nca == 0 -> r = 1 rule and the mesh's tap-router rule).
  std::vector<double> w(5, 0.0);
  w[1] = p;
  w[2] += static_cast<double>(a - 1) * p;  // rest of group 0
  for (int gx = 1; gx < g; ++gx) {
    const int q = g - 1 - gx;  // slot of group gx toward group 0
    const int entry = (g - 2 - q) / h;
    const int extra = entry != 0 ? 1 : 0;  // local hop inside group 0
    w[static_cast<std::size_t>(2 + extra)] += p;  // source router == gateway
    w[static_cast<std::size_t>(3 + extra)] +=
        static_cast<double>(a - 1) * p;
  }
  return LinkDistribution(std::move(w));
}

}  // namespace coc
