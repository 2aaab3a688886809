// Discrete-event simulation of the full cluster-of-clusters system
// (the paper's §4 validation substrate, rebuilt from scratch).
//
// Instantiates one topology per cluster network — ICN1(i) and ECN1(i) — plus
// the global ICN2 whose node slots host the concentrator/dispatchers; all
// instances come resolved and shared from the SystemConfig, so any Topology
// implementation (m-port n-tree, crossbar, mesh/torus) plugs in unchanged.
// Intra-cluster messages take the ICN1 routing oracle's path; inter-cluster
// messages take the tap-attached path
//     ECN1(i) access (r links) -> ICN2 (d_l links) -> ECN1(j) egress (v links)
// which matches the analytical model's link accounting exactly.
//
// Hot-path design: message construction streams through a caller-owned
// SimScratch — the wormhole engine's arena, the traffic buffer, and one
// reusable RoutedPath — so a sweep reuses every allocation across its
// points. The deterministic-ascent ICN2 leg (the only part of an
// inter-cluster route that depends solely on the cluster pair) is
// precomputed per (src cluster, dst cluster) at construction and memcpy'd
// into each message's path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/metrics.h"
#include "sim/sim_config.h"
#include "sim/traffic.h"
#include "sim/wormhole_engine.h"
#include "system/system_config.h"
#include "topology/topology.h"

namespace coc {

/// How clusters' concentrator/dispatchers are assigned to ICN2 node slots.
/// The paper does not specify an assignment; it matters because slots under
/// one ICN2 leaf switch share that leaf's uplinks.
enum class Icn2SlotPolicy : std::uint8_t {
  /// Slot = cluster index, the paper's implicit reading. In the Table 1
  /// organizations this packs equally-sized clusters under shared ICN2
  /// leaves, which keeps their (heavy) mutual traffic leaf-local — measured
  /// in bench/ablation_attach, it outperforms interleaving under the
  /// default cut-through C/D discipline. Default.
  kClusterMajor,
  /// Stride clusters across leaf switches so adjacent (equally-sized)
  /// clusters land under different leaves; spreads per-leaf load at the
  /// cost of forcing heavy pairs through the root stage (ablation).
  kInterleaved,
};

/// A routed path in global channel ids plus the segment lengths the C/D
/// placement needs: `access_links` is the ECN1(i) leg length (0 for
/// intra-cluster paths) and `icn2_links` the ICN2 leg length. Reused as a
/// scratch buffer by the simulation loop — all vectors keep their capacity
/// across messages.
struct RoutedPath {
  std::vector<std::int32_t> path;
  int access_links = 0;
  int icn2_links = 0;
  /// Internal staging area for topology-local channel ids (Topology speaks
  /// int64 local ids; the global table is int32). Callers can ignore it.
  std::vector<std::int64_t> scratch;
};

/// Reusable per-run buffers: everything CocSystemSim::Run allocates that can
/// be carried from one run to the next. One SimScratch per thread; passing
/// the same instance to consecutive runs (a sweep, replications) makes the
/// steady-state injection path allocation-free.
struct SimScratch {
  WormholeEngine engine;
  std::vector<TrafficEvent> traffic;
  RoutedPath routed;
  std::vector<std::int32_t> depth;
  std::vector<std::int32_t> store_forward;
};

/// Builds the network once; each Run draws fresh traffic and replays the
/// full warm-up / measurement / drain protocol.
class CocSystemSim {
 public:
  /// Throws std::invalid_argument naming the count when the system has more
  /// than 2^23 channels, before allocating any per-channel state.
  explicit CocSystemSim(const SystemConfig& sys,
                        Icn2SlotPolicy slot_policy = Icn2SlotPolicy::kClusterMajor);

  /// ICN2 node slot hosting cluster i's concentrator/dispatcher.
  std::int64_t Icn2Slot(int cluster) const {
    return icn2_slot_[static_cast<std::size_t>(cluster)];
  }

  /// Runs one experiment and returns latency statistics over the measured
  /// window plus channel utilization over the whole run. Allocates a fresh
  /// SimScratch; sweeps should use the overload below and reuse one. Both
  /// throw std::invalid_argument naming a message count outside [0, 2^20].
  SimResult Run(const SimConfig& cfg) const;

  /// Same, but streams through caller-owned scratch buffers (engine arena,
  /// traffic, path staging), so consecutive runs reuse all capacity.
  SimResult Run(const SimConfig& cfg, SimScratch& scratch) const;

  /// Channel sequence (global channel ids) a message from global node src to
  /// global node dst traverses; exposed for tests and path-length audits.
  /// `ascent_entropy` perturbs route choice where the topologies have
  /// freedom (0 = the paper's deterministic routing).
  std::vector<std::int32_t> BuildPath(std::int64_t src, std::int64_t dst,
                                      std::uint64_t ascent_entropy = 0) const;

  /// Allocation-free variant: rebuilds `out` in place (clearing it but
  /// keeping capacity) with the routed path and its segment lengths.
  void BuildRoutedPathInto(std::int64_t src, std::int64_t dst,
                           std::uint64_t ascent_entropy, RoutedPath& out) const;

  /// Per-flit transmission time of every global channel, indexed by id.
  const std::vector<double>& channel_flit_times() const { return flit_time_; }

  /// Total number of global channels across all networks.
  std::int64_t num_channels() const {
    return static_cast<std::int64_t>(flit_time_.size());
  }

  /// Human-readable description of a global channel id, e.g.
  /// "cluster 31 ECN1 switch L2 -> L3" or "ICN2 node 5 -> switch L1".
  /// Used by the bottleneck example and diagnostics.
  std::string DescribeChannel(std::int32_t id) const;

 private:
  enum class NetClass : std::uint8_t { kIcn1, kEcn1, kIcn2 };

  /// One cached deterministic-ascent ICN2 leg (global channel ids) in the
  /// flat icn2_leg_buf_, for a (src cluster, dst cluster) pair.
  struct CachedLeg {
    std::int32_t offset = 0;
    std::int32_t len = 0;
  };

  // Appends a topology's channels to the global table with the given
  // characteristics; returns the global id offset of its channels.
  std::int32_t RegisterNetwork(const Topology& topo,
                               const NetworkCharacteristics& net,
                               NetClass net_class);

  SystemConfig sys_;
  // Topology instances are owned (shared) by sys_; clusters with equal
  // resolved specs share one instance but keep their own channel id ranges.
  std::vector<const Topology*> icn1_topo_;  // per cluster, borrowed
  std::vector<const Topology*> ecn1_topo_;  // per cluster, borrowed
  const Topology* icn2_topo_ = nullptr;
  std::vector<std::int32_t> icn1_offset_;  // per cluster
  std::vector<std::int32_t> ecn1_offset_;  // per cluster
  std::int32_t icn2_offset_ = 0;
  std::vector<std::int64_t> icn2_slot_;  // cluster -> ICN2 node slot
  std::vector<double> flit_time_;
  std::vector<NetClass> channel_class_;
  // Route-skeleton cache: deterministic ICN2 legs per (ci, cj), ci != cj,
  // indexed ci * num_clusters + cj into icn2_leg_ with ids in icn2_leg_buf_.
  std::vector<CachedLeg> icn2_leg_;
  std::vector<std::int32_t> icn2_leg_buf_;
};

}  // namespace coc
