#include "sim/coc_system_sim.h"

#include <algorithm>
#include <stdexcept>

#include "common/rng.h"

namespace coc {

// The workload layer rejects message lengths the engine cannot carry; keep
// the two ceilings in lockstep.
static_assert(MessageLength::kMaxFlits == WormholeEngine::kMaxFlits);

namespace {

constexpr std::uint64_t kTagMeasured = 1;
constexpr std::uint64_t kTagInter = 2;
constexpr int kTagClusterShift = 2;  // bits [2..) carry the source cluster

// Per-channel state (flit times, engine channel state) is inherent to
// simulation, so the total channel count across every network is capped.
constexpr std::int64_t kMaxChannels = std::int64_t{1} << 23;
// Traffic and the engine arena are sized per message: ~8.7x the paper's 120k.
constexpr std::int64_t kMaxMessages = std::int64_t{1} << 20;
// The ICN2 route skeletons are one leg per ordered cluster pair: up to 1024
// clusters, 32x the largest Table 1 organization.
constexpr std::int64_t kMaxClusterPairs = std::int64_t{1} << 20;

std::int64_t CheckedMessages(std::int64_t n) {
  if (n < 0 || n > kMaxMessages) {
    throw std::invalid_argument("cannot simulate " + std::to_string(n) +
                                " messages (allowed: 0 to 2^20)");
  }
  return n;
}

}  // namespace

CocSystemSim::CocSystemSim(const SystemConfig& sys, Icn2SlotPolicy slot_policy)
    : sys_(sys) {
  const int c = sys_.num_clusters();
  const std::int64_t pairs = std::int64_t{c} * (c - 1);
  if (pairs > kMaxClusterPairs) {
    throw std::invalid_argument("system too large to simulate: " +
                                std::to_string(c) + " clusters, " +
                                std::to_string(pairs) +
                                " ordered cluster pairs (> 2^20)");
  }
  // Bound the total before any per-channel state is allocated; this also
  // keeps the int32 global ids in range.
  std::int64_t total = sys_.icn2_topology().num_channels();
  for (int i = 0; i < c; ++i) {
    total += sys_.icn1_topology(i).num_channels() +
             sys_.ecn1_topology(i).num_channels();
  }
  if (total > kMaxChannels) {
    throw std::invalid_argument("system too large to simulate: " +
                                std::to_string(total) +
                                " channels (> 2^23)");
  }
  flit_time_.reserve(static_cast<std::size_t>(total));
  channel_class_.reserve(static_cast<std::size_t>(total));
  icn1_topo_.resize(static_cast<std::size_t>(c));
  ecn1_topo_.resize(static_cast<std::size_t>(c));
  icn1_offset_.resize(static_cast<std::size_t>(c));
  ecn1_offset_.resize(static_cast<std::size_t>(c));
  for (int i = 0; i < c; ++i) {
    const ClusterConfig& cluster = sys_.cluster(i);
    icn1_topo_[static_cast<std::size_t>(i)] = &sys_.icn1_topology(i);
    ecn1_topo_[static_cast<std::size_t>(i)] = &sys_.ecn1_topology(i);
    icn1_offset_[static_cast<std::size_t>(i)] = RegisterNetwork(
        sys_.icn1_topology(i), cluster.icn1, NetClass::kIcn1);
    ecn1_offset_[static_cast<std::size_t>(i)] = RegisterNetwork(
        sys_.ecn1_topology(i), cluster.ecn1, NetClass::kEcn1);
  }
  icn2_topo_ = &sys_.icn2_topology();
  icn2_offset_ = RegisterNetwork(*icn2_topo_, sys_.icn2(), NetClass::kIcn2);

  // C/D slot assignment. Interleaving strides consecutive clusters across
  // the leaf switches (k = m/2 slots per leaf): with C slots and C/k leaves,
  // cluster i -> slot (i mod C/k) * k + i / (C/k), a bijection whenever the
  // cluster count fills whole leaves; otherwise fall back to identity.
  icn2_slot_.resize(static_cast<std::size_t>(c));
  const std::int64_t k = sys_.k();
  const std::int64_t leaves = c / k;
  const bool can_interleave =
      slot_policy == Icn2SlotPolicy::kInterleaved && leaves > 0 &&
      c % k == 0 && c <= icn2_topo_->num_nodes();
  for (std::int64_t i = 0; i < c; ++i) {
    icn2_slot_[static_cast<std::size_t>(i)] =
        can_interleave ? (i % leaves) * k + i / leaves : i;
  }

  // Route-skeleton cache: under deterministic ascent (entropy 0) the ICN2
  // leg of an inter-cluster route depends only on the cluster pair, so
  // precompute all C * (C - 1) legs once (global channel ids).
  icn2_leg_.assign(static_cast<std::size_t>(c) * static_cast<std::size_t>(c),
                   CachedLeg{});
  for (int ci = 0; ci < c; ++ci) {
    for (int cj = 0; cj < c; ++cj) {
      if (ci == cj) continue;
      CachedLeg& leg =
          icn2_leg_[static_cast<std::size_t>(ci) * static_cast<std::size_t>(c) +
                    static_cast<std::size_t>(cj)];
      leg.offset = static_cast<std::int32_t>(icn2_leg_buf_.size());
      for (auto ch :
           icn2_topo_->Route(icn2_slot_[static_cast<std::size_t>(ci)],
                             icn2_slot_[static_cast<std::size_t>(cj)], 0)) {
        icn2_leg_buf_.push_back(icn2_offset_ + static_cast<std::int32_t>(ch));
      }
      leg.len = static_cast<std::int32_t>(icn2_leg_buf_.size()) - leg.offset;
    }
  }
}

std::int32_t CocSystemSim::RegisterNetwork(const Topology& topo,
                                           const NetworkCharacteristics& net,
                                           NetClass net_class) {
  const auto offset = static_cast<std::int32_t>(flit_time_.size());
  const double dm = sys_.message().flit_bytes;
  // Node links use t_cn, switch links t_cs (Topology's shared id layout).
  const auto node_links = static_cast<std::size_t>(topo.num_node_links());
  const auto channels = static_cast<std::size_t>(topo.num_channels());
  flit_time_.insert(flit_time_.end(), node_links, net.TCn(dm));
  flit_time_.insert(flit_time_.end(), channels - node_links, net.TCs(dm));
  channel_class_.insert(channel_class_.end(), channels, net_class);
  return offset;
}

std::string CocSystemSim::DescribeChannel(std::int32_t id) const {
  if (id < 0 || id >= num_channels()) return "invalid channel";
  // Locate the owning topology by offset ranges (registration order: per
  // cluster ICN1 then ECN1, finally ICN2).
  std::string prefix;
  const Topology* topo = nullptr;
  std::int64_t local = 0;
  if (id >= icn2_offset_) {
    prefix = "ICN2";
    topo = icn2_topo_;
    local = id - icn2_offset_;
  } else {
    for (int i = sys_.num_clusters() - 1; i >= 0; --i) {
      if (id >= ecn1_offset_[static_cast<std::size_t>(i)]) {
        prefix = "cluster " + std::to_string(i) + " ECN1";
        topo = ecn1_topo_[static_cast<std::size_t>(i)];
        local = id - ecn1_offset_[static_cast<std::size_t>(i)];
        break;
      }
      if (id >= icn1_offset_[static_cast<std::size_t>(i)]) {
        prefix = "cluster " + std::to_string(i) + " ICN1";
        topo = icn1_topo_[static_cast<std::size_t>(i)];
        local = id - icn1_offset_[static_cast<std::size_t>(i)];
        break;
      }
    }
  }
  const ChannelInfo info = topo->Channel(local);
  auto endpoint = [](const Endpoint& e) {
    return e.is_node ? "node " + std::to_string(e.index)
                     : "switch L" + std::to_string(e.level) + "#" +
                           std::to_string(e.index);
  };
  return prefix + " " + endpoint(info.from) + " -> " + endpoint(info.to);
}

void CocSystemSim::BuildRoutedPathInto(std::int64_t src, std::int64_t dst,
                                       std::uint64_t ascent_entropy,
                                       RoutedPath& out) const {
  if (src == dst) throw std::invalid_argument("src == dst");
  out.path.clear();
  out.scratch.clear();  // defensive: drop any half-staged leg from a throw
  out.access_links = 0;
  out.icn2_links = 0;
  const int ci = sys_.ClusterOfNode(src);
  const int cj = sys_.ClusterOfNode(dst);
  const std::int64_t ls = src - sys_.ClusterBase(ci);
  const std::int64_t ld = dst - sys_.ClusterBase(cj);

  // Appends the staged topology-local leg to out.path as global ids.
  auto flush = [&out](std::int32_t offset) {
    for (auto ch : out.scratch) {
      out.path.push_back(offset + static_cast<std::int32_t>(ch));
    }
    out.scratch.clear();
  };

  if (ci == cj) {
    icn1_topo_[static_cast<std::size_t>(ci)]->RouteInto(ls, ld, ascent_entropy,
                                                        out.scratch);
    flush(icn1_offset_[static_cast<std::size_t>(ci)]);
    return;
  }
  // Tap-attached inter-cluster route: ECN1(i) access to the concentrator,
  // the ICN2 journey between the two C/D node slots, ECN1(j) egress. The
  // ECN1 legs are pinned to the tap attachment (the C/Ds live there); only
  // the ICN2 leg can use routing entropy.
  ecn1_topo_[static_cast<std::size_t>(ci)]->RouteToTapInto(ls, out.scratch);
  flush(ecn1_offset_[static_cast<std::size_t>(ci)]);
  out.access_links = static_cast<int>(out.path.size());
  if (ascent_entropy == 0) {
    // Deterministic ascent: the leg is precomputed per cluster pair.
    const CachedLeg& leg =
        icn2_leg_[static_cast<std::size_t>(ci) *
                      static_cast<std::size_t>(sys_.num_clusters()) +
                  static_cast<std::size_t>(cj)];
    out.path.insert(out.path.end(),
                    icn2_leg_buf_.begin() + leg.offset,
                    icn2_leg_buf_.begin() + leg.offset + leg.len);
  } else {
    icn2_topo_->RouteInto(icn2_slot_[static_cast<std::size_t>(ci)],
                          icn2_slot_[static_cast<std::size_t>(cj)],
                          ascent_entropy, out.scratch);
    flush(icn2_offset_);
  }
  out.icn2_links = static_cast<int>(out.path.size()) - out.access_links;
  ecn1_topo_[static_cast<std::size_t>(cj)]->RouteFromTapInto(ld, out.scratch);
  flush(ecn1_offset_[static_cast<std::size_t>(cj)]);
}

std::vector<std::int32_t> CocSystemSim::BuildPath(
    std::int64_t src, std::int64_t dst, std::uint64_t ascent_entropy) const {
  RoutedPath routed;
  BuildRoutedPathInto(src, dst, ascent_entropy, routed);
  return std::move(routed.path);
}

SimResult CocSystemSim::Run(const SimConfig& cfg) const {
  SimScratch scratch;
  return Run(cfg, scratch);
}

SimResult CocSystemSim::Run(const SimConfig& cfg, SimScratch& scratch) const {
  // Each phase is bounded (the measured one first) before the sum is.
  const std::int64_t measured = CheckedMessages(cfg.measured_messages);
  const std::int64_t total =
      CheckedMessages(CheckedMessages(cfg.warmup_messages) + measured +
                      CheckedMessages(cfg.drain_messages));
  GenerateTraffic(sys_, cfg, total, scratch.traffic);

  WormholeEngine& engine = scratch.engine;
  engine.Reset(flit_time_);
  RoutedPath& routed = scratch.routed;
  // Independent stream for routing entropy so traffic draws stay identical
  // across ascent policies (paired-comparison friendly).
  Rng route_rng(cfg.seed ^ 0xc0ffee5eedULL);
  for (std::int64_t idx = 0; idx < total; ++idx) {
    const TrafficEvent& ev = scratch.traffic[static_cast<std::size_t>(idx)];
    const int ci = sys_.ClusterOfNode(ev.src);
    const int cj = sys_.ClusterOfNode(ev.dst);
    const std::uint64_t entropy =
        cfg.ascent == SimConfig::AscentPolicy::kRandomized ? route_rng() : 0;
    BuildRoutedPathInto(ev.src, ev.dst, entropy, routed);
    scratch.depth.assign(routed.path.size(), 1);
    scratch.store_forward.clear();
    std::uint64_t tag = static_cast<std::uint64_t>(ci) << kTagClusterShift;
    if (idx >= cfg.warmup_messages &&
        idx < cfg.warmup_messages + cfg.measured_messages) {
      tag |= kTagMeasured;
    }
    if (ci != cj) {
      tag |= kTagInter;
      // Concentrate and dispatch buffers sit after the ECN1(i) access leg
      // and after the ICN2 egress link respectively.
      const std::size_t r = static_cast<std::size_t>(routed.access_links);
      const std::size_t icn2_links =
          static_cast<std::size_t>(routed.icn2_links);
      scratch.depth[r - 1] = cfg.condis_buffer_flits;
      scratch.depth[r + icn2_links - 1] = cfg.condis_buffer_flits;
      if (cfg.condis_mode == CondisMode::kStoreForward) {
        if (cfg.condis_buffer_flits != 0) {
          throw std::invalid_argument(
              "store-and-forward C/D requires unbounded condis buffers");
        }
        // The message concentrates fully before re-injection, so the ICN2
        // injection channel (position r) and the ECN1(j) egress entry
        // (position r + d_l) are held only at their own networks' rates —
        // matching the model's Eq. (36)-(38) M/G/1 service times.
        scratch.store_forward.push_back(static_cast<std::int32_t>(r));
        scratch.store_forward.push_back(
            static_cast<std::int32_t>(r + icn2_links));
      }
    }
    engine.AddMessage(ev.time, routed.path.data(), scratch.depth.data(),
                      routed.path.size(), ev.flits, tag,
                      scratch.store_forward.data(),
                      scratch.store_forward.size());
  }

  SimResult result;
  result.per_cluster.resize(static_cast<std::size_t>(sys_.num_clusters()));
  if (cfg.record_deliveries) {
    result.delivery_times.reserve(
        static_cast<std::size_t>(cfg.measured_messages));
  }
  WormholeEngine::RunLimits limits;
  limits.max_events = cfg.max_events;
  limits.deadline = cfg.deadline;
  engine.Run(
      [&result, &cfg](const WormholeEngine::Delivery& d) {
        if (d.user_tag & kTagMeasured) {
          const double latency = d.deliver_time - d.gen_time;
          result.latency.Add(latency);
          ((d.user_tag & kTagInter) ? result.inter_latency
                                    : result.intra_latency)
              .Add(latency);
          result.per_cluster[static_cast<std::size_t>(d.user_tag >>
                                                      kTagClusterShift)]
              .Add(latency);
          if (cfg.record_deliveries) {
            result.delivery_times.push_back(d.deliver_time);
          }
        }
      },
      limits);
  result.delivered = engine.delivered_count();
  result.duration = engine.end_time();

  for (std::int64_t ch = 0; ch < num_channels(); ++ch) {
    NetworkUtilization* util = nullptr;
    switch (channel_class_[static_cast<std::size_t>(ch)]) {
      case NetClass::kIcn1:
        util = &result.icn1_util;
        break;
      case NetClass::kEcn1:
        util = &result.ecn1_util;
        break;
      case NetClass::kIcn2:
        util = &result.icn2_util;
        break;
    }
    const double busy = engine.ChannelBusyTime(static_cast<std::int32_t>(ch));
    util->busy_time += busy;
    util->max_busy_time = std::max(util->max_busy_time, busy);
    util->channels += 1;
  }
  return result;
}

}  // namespace coc
