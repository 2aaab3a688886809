// m-port n-tree fat-tree topology (Lin, "An Efficient Communication Scheme
// for Fat-Tree Topology on InfiniBand Networks", paper ref. [17]).
//
// An m-port n-tree consists of
//     N    = 2 (m/2)^n              processing nodes and
//     N_sw = (2n - 1)(m/2)^{n-1}    m-port switches,
// arranged in n switch levels (level 1 = leaf, level n = root). Every
// non-root switch uses m/2 ports downward and m/2 upward; root switches use
// all m ports downward. The topology is the paper's substrate for all three
// network classes of the cluster-of-clusters system (ICN1, ECN1, ICN2); it
// implements the pluggable Topology interface alongside FullCrossbar and
// KAryMesh.
//
// Addressing. Let k = m/2. A processing node is the digit tuple
// (p_{n-1}, ..., p_1, p_0) with p_{n-1} in [0, 2k) and p_i in [0, k)
// otherwise; its integer id is p_{n-1} k^{n-1} + sum_{j<n-1} p_j k^j.
// A level-l switch (l < n) is a pair (H, R): H fixes the high digits
// (p_{n-1}, ..., p_l) and R in [0,k)^{l-1} is the fat-tree replication index.
// Root switches have empty H and R in [0,k)^{n-1}. A level-l switch covers
// exactly k^l nodes (roots cover all 2k^n), which yields the NCA-level
// probability distribution of the paper's Eq. (6).
//
// Routing. Deterministic up*/down* (paper refs. [19][20]): ascend from the
// source to the nearest common ancestor (NCA) choosing up-port u_j =
// q_{j-1} at level j (destination-digit a.k.a. d-mod-k ascent, deterministic
// per source/destination pair), then descend along destination digits. A
// message whose NCA is at level h crosses exactly 2h links.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topology/topology.h"

namespace coc {

/// Immutable m-port n-tree; decodes channels from their ids and answers
/// routing queries. Throws std::invalid_argument for m < 4, odd m, n < 1,
/// n > 20, or more than 2^22 nodes.
class MPortNTree : public Topology {
 public:
  MPortNTree(int m, int n);

  int m() const { return m_; }
  int n() const { return n_; }
  /// Switch arity half-width k = m/2 (down- and up-port count per switch).
  int k() const { return k_; }
  /// Number of processing nodes, N = 2 k^n.
  std::int64_t num_nodes() const override { return num_nodes_; }
  /// Number of switches, (2n-1) k^{n-1}.
  std::int64_t num_switches() const { return num_switches_; }
  /// Number of switches at a given level (1..n).
  std::int64_t SwitchesAtLevel(int level) const;
  /// Total directed channels = 2 n N (N node links up + N down + (n-1) N
  /// switch links per direction).
  std::int64_t num_channels() const override { return 2 * n_ * num_nodes_; }

  std::string Name() const override {
    return std::to_string(m_) + "-port " + std::to_string(n_) + "-tree";
  }

  /// Static metadata for a channel id in [0, num_channels()).
  ChannelInfo Channel(std::int64_t id) const override;

  /// Eq. (6) journey distribution: a level-h NCA journey crosses 2h links.
  const LinkDistribution& Links() const override { return links_; }

  /// Eq. (6) under partial occupancy: the level counts of [0, c), O(n).
  std::vector<std::int64_t> PrefixJourneys(std::int64_t c) const override;

  /// Eq. (6) access distribution: the spine ascent exits at level r with the
  /// same law, crossing r links.
  const LinkDistribution& AccessLinks() const override {
    return access_links_;
  }

  /// Level of the nearest common ancestor of two distinct nodes, in [1, n].
  /// Returns 0 when src == dst.
  int NcaLevel(std::int64_t src, std::int64_t dst) const;

  /// Up*/down* route: appends the exact channel sequence from src to dst
  /// (2 * NcaLevel(src, dst) channels; nothing when src == dst). The up-port
  /// chosen at level j is (q_{j-1} + e_j) mod k where e_j is the j-th base-k
  /// digit of `entropy`: any fat-tree ascent reaches a valid NCA, so the
  /// route is always correct and has the same length; entropy = 0 is the
  /// paper's deterministic destination-digit ascent. Nonzero entropy is the
  /// oblivious load-balancing ablation (Valiant-style ascent randomization).
  void RouteInto(std::int64_t src, std::int64_t dst, std::uint64_t entropy,
                 std::vector<std::int64_t>& out) const override;

  /// Ascending-only route from `src` to the spine of `anchor`: appends the
  /// channel sequence up to (and including arrival at) the first switch
  /// lying on the up*/down* spine of node `anchor` — i.e.
  /// NcaLevel(src, anchor) links. Used for the spine-tapped concentrator
  /// attachment: outbound inter-cluster messages exit the ECN1 there.
  void AscendToSpineInto(std::int64_t src, std::int64_t anchor,
                         std::vector<std::int64_t>& out) const;

  /// Descending-only route from the spine of `anchor` down to `dst`:
  /// NcaLevel(dst, anchor) links, entering at the spine switch at that level.
  /// Used for the dispatcher side of the spine-tapped attachment.
  void DescendFromSpineInto(std::int64_t dst, std::int64_t anchor,
                            std::vector<std::int64_t>& out) const;

  /// Allocating conveniences over the Into variants.
  std::vector<std::int64_t> AscendToSpine(std::int64_t src,
                                          std::int64_t anchor) const {
    std::vector<std::int64_t> out;
    AscendToSpineInto(src, anchor, out);
    return out;
  }
  std::vector<std::int64_t> DescendFromSpine(std::int64_t dst,
                                             std::int64_t anchor) const {
    std::vector<std::int64_t> out;
    DescendFromSpineInto(dst, anchor, out);
    return out;
  }

  /// Topology tap: the spine of node 0.
  void RouteToTapInto(std::int64_t src,
                      std::vector<std::int64_t>& out) const override {
    AscendToSpineInto(src, 0, out);
  }
  void RouteFromTapInto(std::int64_t dst,
                        std::vector<std::int64_t>& out) const override {
    DescendFromSpineInto(dst, 0, out);
  }

  /// Channel id of the node -> leaf-switch injection link of a node.
  std::int64_t NodeUpChannel(std::int64_t node) const;
  /// Channel id of the leaf-switch -> node ejection link of a node.
  std::int64_t NodeDownChannel(std::int64_t node) const;

  /// Exact census of NCA levels from one source to every other node;
  /// element h-1 counts destinations whose NCA with src is at level h.
  /// Tests cross-check this against the model's Eq. (6).
  std::vector<std::int64_t> NcaCensus(std::int64_t src) const;

 private:
  // Digit helpers (see file comment for the digit convention).
  void NodeDigits(std::int64_t node, int* digits) const;  // digits[0..n-1]

  // Flat index of the level-l switch with high digits H (given as the node
  // digit array of any covered node) and replication tuple R (given as the
  // low digits r_1..r_{l-1} packed little-endian in [0, k^{l-1})).
  std::int64_t SwitchIndex(int level, const int* node_digits,
                           std::int64_t r_packed) const;

  // Channel id of the up / down link between the level-l switch with index
  // `sw` and its parent via up-port u.
  std::int64_t UpChannel(int level, std::int64_t sw, int u) const;
  std::int64_t DownChannel(int level, std::int64_t sw, int u) const;

  int m_, n_, k_;
  std::int64_t num_nodes_, num_switches_;
  std::vector<std::int64_t> pow_k_;  // k^0 .. k^n
  LinkDistribution links_;
  LinkDistribution access_links_;
};

}  // namespace coc
