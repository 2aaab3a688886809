#include "topology/m_port_n_tree.h"

#include <stdexcept>

namespace coc {
namespace {

constexpr int kMaxDigits = 32;

/// Validates m, n and the node count 2 (m/2)^n before any member computation
/// touches them (throws std::invalid_argument); returns m so the constructor
/// runs it first in the member-initializer list.
int ValidatedM(int m, int n) {
  if (m < 4 || m % 2 != 0) {
    throw std::invalid_argument("m-port n-tree requires even m >= 4");
  }
  if (n < 1 || n > 20) {
    throw std::invalid_argument("m-port n-tree requires 1 <= n <= 20");
  }
  std::int64_t nodes = 2;
  for (int i = 0; i < n; ++i) {
    nodes *= m / 2;  // at most 2^22 * 2^30 here: cannot overflow
    if (nodes > kMaxTopologyNodes) {
      throw std::invalid_argument("tree too large (> 2^22 nodes)");
    }
  }
  return m;
}

}  // namespace

MPortNTree::MPortNTree(int m, int n)
    : m_(ValidatedM(m, n)),
      n_(n),
      k_(m / 2),
      links_(TreeLinkDistribution(m, n)),
      access_links_(TreeAccessDistribution(m, n)) {
  pow_k_.resize(static_cast<std::size_t>(n_) + 1);
  pow_k_[0] = 1;
  for (int i = 1; i <= n_; ++i) pow_k_[static_cast<std::size_t>(i)] = pow_k_[static_cast<std::size_t>(i - 1)] * k_;
  num_nodes_ = 2 * pow_k_[static_cast<std::size_t>(n_)];
  num_switches_ = (2 * n_ - 1) * pow_k_[static_cast<std::size_t>(n_ - 1)];
}

ChannelInfo MPortNTree::Channel(std::int64_t id) const {
  // Layout: [node up | node down | per level l in 1..n-1: up | down], each
  // block N channels; within a switch block, id = sw * k + up-port u.
  if (id < num_node_links()) {
    // A node's leaf switch packs its high digits: node / k (the sole root
    // when n = 1).
    return NodeLink(id, n_ == 1 ? 0 : id % num_nodes_ / k_);
  }
  const int l = static_cast<int>(id / (2 * num_nodes_));
  const std::int64_t rest = id % (2 * num_nodes_);
  const std::int64_t sw = rest % num_nodes_ / k_;
  const std::int64_t u = rest % k_;
  const std::int64_t rep = pow_k_[static_cast<std::size_t>(l - 1)];
  const std::int64_t r_parent = sw % rep + u * rep;
  const std::int64_t parent =
      (l + 1 == n_) ? r_parent : (sw / rep / k_) * (rep * k_) + r_parent;
  const Endpoint child_end{false, l, sw};
  const Endpoint parent_end{false, l + 1, parent};
  return rest < num_nodes_
             ? ChannelInfo{ChannelKind::kSwitchUp, child_end, parent_end}
             : ChannelInfo{ChannelKind::kSwitchDown, parent_end, child_end};
}

std::int64_t MPortNTree::SwitchesAtLevel(int level) const {
  if (level < 1 || level > n_) return 0;
  return (level == n_ ? 1 : 2) * pow_k_[static_cast<std::size_t>(n_ - 1)];
}

void MPortNTree::NodeDigits(std::int64_t node, int* digits) const {
  const std::int64_t top_weight = pow_k_[static_cast<std::size_t>(n_ - 1)];
  digits[n_ - 1] = static_cast<int>(node / top_weight);
  std::int64_t rest = node % top_weight;
  for (int j = 0; j < n_ - 1; ++j) {
    digits[j] = static_cast<int>(rest % k_);
    rest /= k_;
  }
}

std::int64_t MPortNTree::SwitchIndex(int level, const int* node_digits,
                                     std::int64_t r_packed) const {
  if (level == n_) return r_packed;
  // H packs (p_{n-1}, ..., p_level) with p_{n-1} as the most significant
  // digit (range 2k) and the rest base k.
  std::int64_t h_idx = node_digits[n_ - 1];
  for (int j = n_ - 2; j >= level; --j) h_idx = h_idx * k_ + node_digits[j];
  return h_idx * pow_k_[static_cast<std::size_t>(level - 1)] + r_packed;
}

std::int64_t MPortNTree::UpChannel(int level, std::int64_t sw, int u) const {
  return 2 * level * num_nodes_ + sw * k_ + u;
}

std::int64_t MPortNTree::DownChannel(int level, std::int64_t sw, int u) const {
  return (2 * level + 1) * num_nodes_ + sw * k_ + u;
}

std::int64_t MPortNTree::NodeUpChannel(std::int64_t node) const { return node; }

std::int64_t MPortNTree::NodeDownChannel(std::int64_t node) const {
  return num_nodes_ + node;
}

int MPortNTree::NcaLevel(std::int64_t src, std::int64_t dst) const {
  if (src == dst) return 0;
  int p[kMaxDigits], q[kMaxDigits];
  NodeDigits(src, p);
  NodeDigits(dst, q);
  for (int j = n_ - 1; j >= 0; --j) {
    if (p[j] != q[j]) return j + 1;
  }
  return 0;
}

void MPortNTree::RouteInto(std::int64_t src, std::int64_t dst,
                           std::uint64_t entropy,
                           std::vector<std::int64_t>& out) const {
  const int h = NcaLevel(src, dst);
  if (h == 0) return;
  out.reserve(out.size() + static_cast<std::size_t>(2 * h));

  int p[kMaxDigits], q[kMaxDigits];
  NodeDigits(src, p);
  NodeDigits(dst, q);

  // Ascent: node -> leaf, then up through levels 1..h-1 choosing up-port
  // u_j = q_{j-1} (deterministic destination-digit ascent), perturbed by
  // the base-k digits of `entropy` for the randomized variant.
  out.push_back(NodeUpChannel(src));
  std::int64_t r = 0;  // replication tuple accumulated so far, packed
  std::uint64_t e = entropy;
  for (int j = 1; j <= h - 1; ++j) {
    const std::int64_t sw = SwitchIndex(j, p, r);
    const int u = (q[j - 1] + static_cast<int>(e % static_cast<std::uint64_t>(
                                  k_))) % k_;
    e /= static_cast<std::uint64_t>(k_);
    out.push_back(UpChannel(j, sw, u));
    r += static_cast<std::int64_t>(u) * pow_k_[static_cast<std::size_t>(j - 1)];
  }
  // Descent: from the NCA at level h down along destination digits. The
  // down channel from level l to l-1 is identified by the child switch and
  // the child's up-port, which is the top digit of the parent's packed R.
  for (int l = h; l >= 2; --l) {
    const std::int64_t rep = pow_k_[static_cast<std::size_t>(l - 2)];
    const int u = static_cast<int>(r / rep);
    r %= rep;
    const std::int64_t child = SwitchIndex(l - 1, q, r);
    out.push_back(DownChannel(l - 1, child, u));
  }
  out.push_back(NodeDownChannel(dst));
}

void MPortNTree::AscendToSpineInto(std::int64_t src, std::int64_t anchor,
                                   std::vector<std::int64_t>& out) const {
  // Exit level r: the NCA level between src and the anchor's spine, with a
  // message from the anchor's own leaf exiting at level 1.
  const int nca = NcaLevel(src, anchor);
  const int r_level = nca == 0 ? 1 : nca;

  int p[kMaxDigits], a[kMaxDigits];
  NodeDigits(src, p);
  NodeDigits(anchor, a);

  out.reserve(out.size() + static_cast<std::size_t>(r_level));
  out.push_back(NodeUpChannel(src));
  std::int64_t r = 0;
  for (int j = 1; j <= r_level - 1; ++j) {
    const std::int64_t sw = SwitchIndex(j, p, r);
    const int u = a[j - 1];
    out.push_back(UpChannel(j, sw, u));
    r += static_cast<std::int64_t>(u) * pow_k_[static_cast<std::size_t>(j - 1)];
  }
}

void MPortNTree::DescendFromSpineInto(std::int64_t dst, std::int64_t anchor,
                                      std::vector<std::int64_t>& out) const {
  const int nca = NcaLevel(dst, anchor);
  const int v_level = nca == 0 ? 1 : nca;

  int q[kMaxDigits], a[kMaxDigits];
  NodeDigits(dst, q);
  NodeDigits(anchor, a);

  // The spine switch at level v has replication tuple (a_0 .. a_{v-2}).
  std::int64_t r = 0;
  for (int t = 0; t <= v_level - 2; ++t) {
    r += static_cast<std::int64_t>(a[t]) * pow_k_[static_cast<std::size_t>(t)];
  }
  out.reserve(out.size() + static_cast<std::size_t>(v_level));
  for (int l = v_level; l >= 2; --l) {
    const std::int64_t rep = pow_k_[static_cast<std::size_t>(l - 2)];
    const int u = static_cast<int>(r / rep);
    r %= rep;
    const std::int64_t child = SwitchIndex(l - 1, q, r);
    out.push_back(DownChannel(l - 1, child, u));
  }
  out.push_back(NodeDownChannel(dst));
}

std::vector<std::int64_t> MPortNTree::PrefixJourneys(std::int64_t c) const {
  // A level-h subtree (h < n) is a block of k^h consecutive ids, so the
  // ordered pairs of [0, c) sharing one number the sum of s (s - 1) over the
  // blocks; every pair shares the roots. Those at NCA level h (2h links) are
  // the difference between adjacent levels.
  std::vector<std::int64_t> counts(static_cast<std::size_t>(2 * n_ + 1), 0);
  std::int64_t below = 0;  // pairs sharing a level-(h-1) block
  for (int h = 1; h <= n_; ++h) {
    const std::int64_t size =
        h < n_ ? pow_k_[static_cast<std::size_t>(h)] : num_nodes_;
    const std::int64_t rest = c % size;
    const std::int64_t shared =
        c / size * size * (size - 1) + rest * (rest - 1);
    counts[static_cast<std::size_t>(2 * h)] = shared - below;
    below = shared;
  }
  return counts;
}

std::vector<std::int64_t> MPortNTree::NcaCensus(std::int64_t src) const {
  std::vector<std::int64_t> census(static_cast<std::size_t>(n_), 0);
  for (std::int64_t dst = 0; dst < num_nodes_; ++dst) {
    if (dst == src) continue;
    ++census[static_cast<std::size_t>(NcaLevel(src, dst) - 1)];
  }
  return census;
}

}  // namespace coc
