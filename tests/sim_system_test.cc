// System-level simulator tests: path construction against the model's link
// accounting, traffic generator statistics, conservation, and end-to-end
// behaviour (zero-load agreement, load response, bottleneck claim).
#include <algorithm>
#include <cmath>
#include <map>

#include "gtest/gtest.h"
#include "oracle/hop_distribution.h"
#include "sim/coc_system_sim.h"
#include "sim/traffic.h"
#include "system/presets.h"
#include "topology/m_port_n_tree.h"

namespace coc {
namespace {

SimConfig FastConfig(double lambda, std::uint64_t seed = 7) {
  SimConfig cfg;
  cfg.lambda_g = lambda;
  cfg.warmup_messages = 300;
  cfg.measured_messages = 3000;
  cfg.drain_messages = 300;
  cfg.seed = seed;
  return cfg;
}

TEST(CocSystemSim, IntraPathLengthIsTwiceNcaLevel) {
  const auto sys = MakeSmallSystem(MessageFormat{16, 64});
  CocSystemSim sim(sys);
  // Cluster 7 has n=3 (16 nodes), base computed from sizes 4,4,4,8,8,8,16,16.
  const auto base = sys.ClusterBase(7);
  const MPortNTree tree(4, 3);
  for (std::int64_t a = 0; a < 16; ++a) {
    for (std::int64_t b = 0; b < 16; ++b) {
      if (a == b) continue;
      const auto path = sim.BuildPath(base + a, base + b);
      EXPECT_EQ(path.size(),
                static_cast<std::size_t>(2 * tree.NcaLevel(a, b)));
    }
  }
}

TEST(CocSystemSim, InterPathLengthIsRPlus2LPlusV) {
  const auto sys = MakeSmallSystem(MessageFormat{16, 64});
  CocSystemSim sim(sys);
  const MPortNTree icn2(4, 2);
  for (int ci : {0, 3, 7}) {
    for (int cj : {1, 5, 6}) {
      if (ci == cj) continue;
      const MPortNTree ti(4, sys.cluster(ci).n), tj(4, sys.cluster(cj).n);
      for (std::int64_t ls = 0; ls < sys.NodesInCluster(ci); ls += 3) {
        for (std::int64_t ld = 0; ld < sys.NodesInCluster(cj); ld += 3) {
          const auto path = sim.BuildPath(sys.ClusterBase(ci) + ls,
                                          sys.ClusterBase(cj) + ld);
          const int r = std::max(1, ti.NcaLevel(ls, 0));
          const int v = std::max(1, tj.NcaLevel(ld, 0));
          const int l = icn2.NcaLevel(sim.Icn2Slot(ci), sim.Icn2Slot(cj));
          EXPECT_EQ(path.size(), static_cast<std::size_t>(r + 2 * l + v));
        }
      }
    }
  }
}

TEST(CocSystemSim, InterPathHopDistributionMatchesEq6) {
  // Sampling sources uniformly, the ECN1 ascent length r must follow the
  // Eq. (6) distribution — the analytical model relies on this.
  const auto sys = MakeSystem544(MessageFormat{32, 256});
  CocSystemSim sim(sys);
  const int ci = 15;  // n=5 cluster, 64 nodes
  const MPortNTree tree(4, 5);
  const HopDistribution hops(4, 5);
  std::map<int, double> census;
  const auto n_i = sys.NodesInCluster(ci);
  for (std::int64_t ls = 0; ls < n_i; ++ls) {
    census[std::max(1, tree.NcaLevel(ls, 0))] += 1.0;
  }
  for (int r = 1; r <= 5; ++r) {
    // The census over N_i sources approximates P over N_i - 1 destinations;
    // both include the anchor's own leaf at r=1, so agreement is ~1/N_i.
    EXPECT_NEAR(census[r] / static_cast<double>(n_i), hops.P(r), 0.05)
        << "r=" << r;
  }
}

TEST(Traffic, PoissonInterarrivalMean) {
  const auto sys = MakeTinySystem(MessageFormat{16, 64});
  SimConfig cfg;
  cfg.lambda_g = 1e-3;
  cfg.seed = 11;
  const auto events = GenerateTraffic(sys, cfg, 20000);
  ASSERT_EQ(events.size(), 20000u);
  const double expected_gap =
      1.0 / (cfg.lambda_g * static_cast<double>(sys.TotalNodes()));
  const double mean_gap = events.back().time / 20000.0;
  EXPECT_NEAR(mean_gap, expected_gap, 0.05 * expected_gap);
  // Times strictly increasing.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].time, events[i - 1].time);
  }
}

TEST(Traffic, UniformDestinationsExcludeSelfAndCoverAll) {
  const auto sys = MakeTinySystem(MessageFormat{16, 64});
  SimConfig cfg;
  cfg.lambda_g = 1e-3;
  cfg.seed = 13;
  const auto events = GenerateTraffic(sys, cfg, 50000);
  std::vector<int> dst_count(static_cast<std::size_t>(sys.TotalNodes()), 0);
  for (const auto& e : events) {
    EXPECT_NE(e.src, e.dst);
    ++dst_count[static_cast<std::size_t>(e.dst)];
  }
  for (auto c : dst_count) EXPECT_GT(c, 0);
  // Rough uniformity: each node receives ~1/N of the traffic.
  const double expect = 50000.0 / static_cast<double>(sys.TotalNodes());
  for (auto c : dst_count) EXPECT_NEAR(c, expect, 6 * std::sqrt(expect));
}

TEST(Traffic, HotspotFractionRespected) {
  const auto sys = MakeTinySystem(MessageFormat{16, 64});
  SimConfig cfg;
  cfg.lambda_g = 1e-3;
  cfg.workload = Workload::Hotspot(0.3, 5);
  cfg.seed = 17;
  const auto events = GenerateTraffic(sys, cfg, 50000);
  int hot = 0;
  for (const auto& e : events) hot += (e.dst == 5);
  // Hot share = p (when src != hot) plus the uniform background.
  const double n = static_cast<double>(sys.TotalNodes());
  const double expected =
      0.3 * (n - 1) / n + (1.0 - 0.3 * (n - 1) / n) / (n - 1);
  EXPECT_NEAR(hot / 50000.0, expected, 0.02);
}

TEST(Traffic, ClusterLocalKeepsRequestedShareInside) {
  const auto sys = MakeSmallSystem(MessageFormat{16, 64});
  SimConfig cfg;
  cfg.lambda_g = 1e-3;
  cfg.workload = Workload::ClusterLocal(0.7);
  cfg.seed = 19;
  const auto events = GenerateTraffic(sys, cfg, 50000);
  int local = 0;
  for (const auto& e : events) {
    local += (sys.ClusterOfNode(e.src) == sys.ClusterOfNode(e.dst));
  }
  EXPECT_NEAR(local / 50000.0, 0.7, 0.02);
}

TEST(Traffic, PermutationIsFixedAndFixedPointFree) {
  const auto sys = MakeTinySystem(MessageFormat{16, 64});
  SimConfig cfg;
  cfg.lambda_g = 1e-3;
  cfg.workload = Workload::Permutation();
  cfg.seed = 23;
  const auto events = GenerateTraffic(sys, cfg, 5000);
  std::map<std::int64_t, std::int64_t> mapping;
  for (const auto& e : events) {
    EXPECT_NE(e.src, e.dst);
    const auto it = mapping.find(e.src);
    if (it == mapping.end()) {
      mapping[e.src] = e.dst;
    } else {
      EXPECT_EQ(it->second, e.dst);
    }
  }
}

TEST(CocSystemSim, AllMessagesDelivered) {
  const auto sys = MakeTinySystem(MessageFormat{16, 64});
  CocSystemSim sim(sys);
  const auto cfg = FastConfig(1e-4);
  const auto result = sim.Run(cfg);
  EXPECT_EQ(result.delivered, cfg.warmup_messages + cfg.measured_messages +
                                  cfg.drain_messages);
  EXPECT_EQ(result.latency.Count(),
            static_cast<std::uint64_t>(cfg.measured_messages));
  EXPECT_EQ(result.intra_latency.Count() + result.inter_latency.Count(),
            result.latency.Count());
}

TEST(CocSystemSim, InterShareTracksOutgoingProbability) {
  const auto sys = MakeTinySystem(MessageFormat{16, 64});
  CocSystemSim sim(sys);
  const auto result = sim.Run(FastConfig(1e-4));
  // All clusters have U = 1 - 7/31.
  const double u = sys.OutgoingProbability(0);
  const double share = static_cast<double>(result.inter_latency.Count()) /
                       static_cast<double>(result.latency.Count());
  EXPECT_NEAR(share, u, 0.03);
}

TEST(CocSystemSim, PerClusterStatsPartitionTheTotal) {
  const auto sys = MakeSmallSystem(MessageFormat{16, 64});
  CocSystemSim sim(sys);
  const auto r = sim.Run(FastConfig(1e-4));
  ASSERT_EQ(r.per_cluster.size(), 8u);
  std::uint64_t total = 0;
  RunningStats merged;
  for (const auto& s : r.per_cluster) {
    total += s.Count();
    merged.Merge(s);
  }
  EXPECT_EQ(total, r.latency.Count());
  EXPECT_NEAR(merged.Mean(), r.latency.Mean(), 1e-9);
  // Source clusters contribute in proportion to their size.
  const double per_node = static_cast<double>(r.latency.Count()) /
                          static_cast<double>(sys.TotalNodes());
  for (int i = 0; i < 8; ++i) {
    const double expected =
        per_node * static_cast<double>(sys.NodesInCluster(i));
    EXPECT_NEAR(static_cast<double>(
                    r.per_cluster[static_cast<std::size_t>(i)].Count()),
                expected, 6 * std::sqrt(expected));
  }
}

TEST(CocSystemSim, PerClusterLatencyTracksModelBlend) {
  // The simulated per-cluster means order the same way as the model's
  // per-cluster blended latencies (Eq. 1): bigger clusters keep more
  // traffic on the fast ICN1 and see lower means.
  const auto sys = MakeSmallSystem(MessageFormat{16, 64});
  CocSystemSim sim(sys);
  const auto r = sim.Run(FastConfig(1e-4));
  // Clusters 0..2 (n=1, 4 nodes, U=0.96) vs clusters 6..7 (n=3, 16 nodes,
  // U=0.83): the latter blend in more cheap intra traffic.
  EXPECT_GT(r.per_cluster[0].Mean(), r.per_cluster[7].Mean());
}

TEST(CocSystemSim, DeterministicAcrossRuns) {
  const auto sys = MakeTinySystem(MessageFormat{16, 64});
  CocSystemSim sim(sys);
  const auto a = sim.Run(FastConfig(2e-4, 31));
  const auto b = sim.Run(FastConfig(2e-4, 31));
  EXPECT_DOUBLE_EQ(a.latency.Mean(), b.latency.Mean());
  const auto c = sim.Run(FastConfig(2e-4, 32));
  EXPECT_NE(a.latency.Mean(), c.latency.Mean());
}

TEST(CocSystemSim, LatencyIncreasesWithLoad) {
  const auto sys = MakeSmallSystem(MessageFormat{16, 64});
  CocSystemSim sim(sys);
  const double low = sim.Run(FastConfig(5e-5)).latency.Mean();
  const double high = sim.Run(FastConfig(8e-4)).latency.Mean();
  EXPECT_GT(high, low);
}

TEST(CocSystemSim, InterLatencyExceedsIntra) {
  // ECN1 is the slower Net.2 and inter paths are longer.
  const auto sys = MakeSmallSystem(MessageFormat{16, 64});
  CocSystemSim sim(sys);
  const auto r = sim.Run(FastConfig(1e-4));
  EXPECT_GT(r.inter_latency.Mean(), r.intra_latency.Mean());
}

TEST(CocSystemSim, UtilizationGrowsWithLoadAndIcn2IsBusiest) {
  const auto sys = MakeSmallSystem(MessageFormat{16, 64});
  CocSystemSim sim(sys);
  const auto lo = sim.Run(FastConfig(5e-5));
  const auto hi = sim.Run(FastConfig(5e-4));
  EXPECT_GT(hi.icn2_util.Mean(hi.duration), lo.icn2_util.Mean(lo.duration));
  // The paper's §4 claim: the inter-cluster networks, especially ICN2, are
  // the bottleneck (per-channel, ICN2 node links carry whole clusters).
  EXPECT_GT(hi.icn2_util.Mean(hi.duration), hi.icn1_util.Mean(hi.duration));
}

TEST(CocSystemSim, StoreForwardAddsSerializationAtLightLoad) {
  // At near-zero load, store-and-forward C/Ds add roughly one full message
  // serialization per re-injection versus cut-through.
  const auto sys = MakeSmallSystem(MessageFormat{16, 64});
  CocSystemSim sim(sys);
  auto ct = FastConfig(2e-5);
  auto sf = FastConfig(2e-5);
  sf.condis_mode = CondisMode::kStoreForward;
  const auto rc = sim.Run(ct);
  const auto rs = sim.Run(sf);
  EXPECT_GT(rs.inter_latency.Mean(), rc.inter_latency.Mean());
  // Intra-cluster traffic is untouched by the C/D discipline.
  EXPECT_NEAR(rs.intra_latency.Mean(), rc.intra_latency.Mean(),
              0.05 * rc.intra_latency.Mean());
}

TEST(CocSystemSim, StoreForwardRejectsBoundedCondisBuffers) {
  const auto sys = MakeTinySystem(MessageFormat{16, 64});
  CocSystemSim sim(sys);
  auto cfg = FastConfig(1e-4);
  cfg.condis_mode = CondisMode::kStoreForward;
  cfg.condis_buffer_flits = 4;
  EXPECT_THROW(sim.Run(cfg), std::invalid_argument);
}

TEST(CocSystemSim, SlotPoliciesProduceValidDistinctAssignments) {
  const auto sys = MakeSystem1120(MessageFormat{32, 256});
  CocSystemSim inter(sys, Icn2SlotPolicy::kInterleaved);
  CocSystemSim major(sys, Icn2SlotPolicy::kClusterMajor);
  std::vector<bool> seen(32, false);
  bool any_diff = false;
  for (int i = 0; i < 32; ++i) {
    const auto s = inter.Icn2Slot(i);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 32);
    ASSERT_FALSE(seen[static_cast<std::size_t>(s)]) << "slot reused";
    seen[static_cast<std::size_t>(s)] = true;
    EXPECT_EQ(major.Icn2Slot(i), i);
    any_diff = any_diff || (s != i);
  }
  EXPECT_TRUE(any_diff);
  // The four largest clusters (28..31) land under distinct ICN2 leaves
  // (4 slots per leaf with m=8).
  std::vector<std::int64_t> leaves;
  for (int i = 28; i < 32; ++i) leaves.push_back(inter.Icn2Slot(i) / 4);
  std::sort(leaves.begin(), leaves.end());
  EXPECT_TRUE(std::adjacent_find(leaves.begin(), leaves.end()) == leaves.end());
}

TEST(CocSystemSim, MaxUtilizationBoundsMean) {
  const auto sys = MakeSmallSystem(MessageFormat{16, 64});
  CocSystemSim sim(sys);
  const auto r = sim.Run(FastConfig(3e-4));
  EXPECT_GE(r.icn2_util.Max(r.duration), r.icn2_util.Mean(r.duration));
  EXPECT_LE(r.icn2_util.Max(r.duration), 1.0 + 1e-9);
}

TEST(CocSystemSim, RandomizedAscentDeliversEverythingDeterministically) {
  const auto sys = MakeSmallSystem(MessageFormat{16, 64});
  CocSystemSim sim(sys);
  auto cfg = FastConfig(2e-4, 51);
  cfg.ascent = SimConfig::AscentPolicy::kRandomized;
  const auto a = sim.Run(cfg);
  EXPECT_EQ(a.delivered, cfg.warmup_messages + cfg.measured_messages +
                             cfg.drain_messages);
  const auto b = sim.Run(cfg);
  EXPECT_DOUBLE_EQ(a.latency.Mean(), b.latency.Mean());
  // Routing entropy changes the schedule relative to deterministic ascent.
  auto det = cfg;
  det.ascent = SimConfig::AscentPolicy::kDeterministic;
  EXPECT_NE(sim.Run(det).latency.Mean(), a.latency.Mean());
}

TEST(CocSystemSim, UnitCondisBufferIncreasesLatency) {
  // Removing the deep concentrate/dispatch buffers exposes ECN1 to ICN2
  // backpressure; at moderate load latency can only get worse.
  const auto sys = MakeSmallSystem(MessageFormat{16, 64});
  CocSystemSim sim(sys);
  auto deep = FastConfig(4e-4);
  auto unit = FastConfig(4e-4);
  unit.condis_buffer_flits = 1;
  EXPECT_GE(sim.Run(unit).latency.Mean(), sim.Run(deep).latency.Mean());
}

}  // namespace
}  // namespace coc
