// Tests for the Dragonfly topology family: palmtree wiring consistency,
// minimal and Valiant routing validity, the exact analytic journey censuses
// (Links() / AccessLinks() moments pinned against exhaustive route
// enumeration on dragonfly:4,2,2 — the ISSUE's acceptance case), the
// entropy contract of the Valiant intermediate-group choice, and the
// acceptance path: a dragonfly cluster-of-clusters evaluated end to end
// through the analytical model and the simulator with the saturation-band
// agreement the mesh/tree workloads are held to.
#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "gtest/gtest.h"
#include "oracle/latency_model.h"
#include "sim/coc_system_sim.h"
#include "system/presets.h"
#include "topology/dragonfly.h"
#include "topology/topology_spec.h"

namespace coc {
namespace {

// Route validity: contiguous endpoints, node terminals at src and dst.
void CheckRoute(const Topology& t, std::int64_t src, std::int64_t dst,
                std::uint64_t entropy) {
  const auto path = t.Route(src, dst, entropy);
  ASSERT_FALSE(path.empty());
  const ChannelInfo& first = t.Channel(path.front());
  const ChannelInfo& last = t.Channel(path.back());
  EXPECT_EQ(first.kind, ChannelKind::kNodeToSwitch);
  EXPECT_EQ(first.from.index, src);
  EXPECT_EQ(last.kind, ChannelKind::kSwitchToNode);
  EXPECT_EQ(last.to.index, dst);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_EQ(t.Channel(path[i]).to, t.Channel(path[i + 1]).from)
        << "discontinuity at hop " << i << " (" << src << "->" << dst
        << ", e=" << entropy << ")";
  }
}

// Exhaustive census over ordered distinct node pairs. For Valiant, stepping
// entropy over [0, g-2) enumerates every eligible intermediate group exactly
// once per pair (minimal routes ignore entropy, so each pair contributes the
// same multiplicity and the normalized census matches the analytic
// distribution in either mode).
void CheckLinksMatchExhaustiveEnumeration(const Dragonfly& t) {
  const int reps = std::max(1, t.valiant_choices());
  std::map<int, double> census;
  const std::int64_t n = t.num_nodes();
  double total = 0;
  for (std::int64_t a = 0; a < n; ++a) {
    for (std::int64_t b = 0; b < n; ++b) {
      if (a == b) continue;
      for (int e = 0; e < reps; ++e) {
        census[static_cast<int>(
            t.Route(a, b, static_cast<std::uint64_t>(e)).size())] += 1.0;
        total += 1.0;
      }
    }
  }
  const LinkDistribution& links = t.Links();
  double sum = 0;
  double mean = 0;
  for (int d = 0; d <= links.max_links(); ++d) {
    const double expected = census.count(d) ? census[d] / total : 0.0;
    EXPECT_NEAR(links.P(d), expected, 1e-12) << t.Name() << " d=" << d;
    sum += links.P(d);
    mean += d * expected;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_NEAR(links.MeanLinks(), mean, 1e-12) << t.Name();
}

void CheckAccessMatchesCensus(const Dragonfly& t) {
  std::map<int, double> census;
  const std::int64_t n = t.num_nodes();
  for (std::int64_t a = 0; a < n; ++a) {
    census[static_cast<int>(t.RouteToTap(a).size())] += 1.0;
  }
  const LinkDistribution& access = t.AccessLinks();
  double mean = 0;
  for (int r = 0; r <= access.max_links(); ++r) {
    const double expected =
        census.count(r) ? census[r] / static_cast<double>(n) : 0.0;
    EXPECT_NEAR(access.P(r), expected, 1e-12) << t.Name() << " r=" << r;
    mean += r * expected;
  }
  EXPECT_NEAR(access.MeanLinks(), mean, 1e-12) << t.Name();
}

void CheckTapClosure(const Dragonfly& t) {
  for (std::int64_t node = 0; node < t.num_nodes(); ++node) {
    const auto up = t.RouteToTap(node);
    const auto down = t.RouteFromTap(node);
    ASSERT_FALSE(up.empty());
    ASSERT_FALSE(down.empty());
    EXPECT_EQ(t.Channel(up.front()).kind, ChannelKind::kNodeToSwitch);
    EXPECT_EQ(t.Channel(up.front()).from.index, node);
    EXPECT_EQ(t.Channel(down.back()).kind, ChannelKind::kSwitchToNode);
    EXPECT_EQ(t.Channel(down.back()).to.index, node);
    EXPECT_EQ(t.Channel(up.back()).to, t.Channel(down.front()).from);
    for (std::size_t i = 0; i + 1 < up.size(); ++i) {
      EXPECT_EQ(t.Channel(up[i]).to, t.Channel(up[i + 1]).from);
    }
    for (std::size_t i = 0; i + 1 < down.size(); ++i) {
      EXPECT_EQ(t.Channel(down[i]).to, t.Channel(down[i + 1]).from);
    }
  }
}

struct DragonflyCase {
  int a, p, h;
  Dragonfly::Routing routing;
};

class DragonflyTest : public ::testing::TestWithParam<DragonflyCase> {};

TEST_P(DragonflyTest, StructureIsConsistent) {
  const auto [a, p, h, routing] = GetParam();
  const Dragonfly t(a, p, h, routing);
  const std::int64_t g = static_cast<std::int64_t>(a) * h + 1;
  EXPECT_EQ(t.num_groups(), g);
  EXPECT_EQ(t.num_nodes(), g * a * p);
  EXPECT_EQ(t.num_channels(),
            2 * g * a * p + g * a * (a - 1) + g * a * h);
  // Every group pair is joined by exactly one global channel per direction,
  // and the palmtree pairing is mutual: a global channel from group A to
  // group B has a partner from B back to A.
  std::map<std::pair<std::int64_t, std::int64_t>, int> group_links;
  for (std::int64_t c = 0; c < t.num_channels(); ++c) {
    const ChannelInfo& info = t.Channel(c);
    if (info.kind != ChannelKind::kSwitchDown) continue;  // global links
    group_links[{info.from.index / a, info.to.index / a}] += 1;
  }
  EXPECT_EQ(static_cast<std::int64_t>(group_links.size()), g * (g - 1));
  for (const auto& [pair, count] : group_links) {
    EXPECT_EQ(count, 1) << pair.first << "->" << pair.second;
    EXPECT_NE(pair.first, pair.second);
    EXPECT_TRUE(group_links.count({pair.second, pair.first}));
  }
}

TEST_P(DragonflyTest, RoutesAreValidAndMinLengthsMatchDistance) {
  const auto [a, p, h, routing] = GetParam();
  const Dragonfly t(a, p, h, routing);
  const int reps = std::max(1, t.valiant_choices());
  for (std::int64_t s = 0; s < t.num_nodes(); ++s) {
    for (std::int64_t d = 0; d < t.num_nodes(); ++d) {
      if (s == d) {
        EXPECT_TRUE(t.Route(s, d).empty());
        continue;
      }
      for (int e = 0; e < reps; ++e) {
        CheckRoute(t, s, d, static_cast<std::uint64_t>(e));
      }
      if (routing == Dragonfly::Routing::kMin) {
        const auto path = t.Route(s, d);
        EXPECT_EQ(path.size(), static_cast<std::size_t>(
                                   t.MinDistance(s / p, d / p)) +
                                   2);
        // Minimal routes ignore entropy.
        EXPECT_EQ(t.Route(s, d, 0xfeedULL), path);
      }
    }
  }
}

TEST_P(DragonflyTest, ExactJourneyStatistics) {
  const auto [a, p, h, routing] = GetParam();
  const Dragonfly t(a, p, h, routing);
  CheckLinksMatchExhaustiveEnumeration(t);
  CheckAccessMatchesCensus(t);
  CheckTapClosure(t);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DragonflyTest,
    ::testing::Values(DragonflyCase{4, 2, 2, Dragonfly::Routing::kMin},
                      DragonflyCase{4, 2, 2, Dragonfly::Routing::kValiant},
                      DragonflyCase{2, 2, 1, Dragonfly::Routing::kMin},
                      DragonflyCase{2, 2, 1, Dragonfly::Routing::kValiant},
                      DragonflyCase{1, 2, 2, Dragonfly::Routing::kMin},
                      DragonflyCase{1, 2, 2, Dragonfly::Routing::kValiant},
                      DragonflyCase{3, 1, 1, Dragonfly::Routing::kMin},
                      DragonflyCase{1, 1, 1, Dragonfly::Routing::kValiant}),
    [](const ::testing::TestParamInfo<DragonflyCase>& info) {
      return std::string("a") + std::to_string(info.param.a) + "p" +
             std::to_string(info.param.p) + "h" +
             std::to_string(info.param.h) +
             (info.param.routing == Dragonfly::Routing::kValiant ? "valiant"
                                                                 : "min");
    });

TEST(Dragonfly, ValiantEntropyEnumeratesEveryIntermediateGroup) {
  const Dragonfly t(4, 2, 2, Dragonfly::Routing::kValiant);  // g = 9
  const int a = 4, p = 2;
  ASSERT_EQ(t.valiant_choices(), 7);
  // For inter-group pairs, the first global hop's landing group must sweep
  // every group other than the source and destination groups exactly once as
  // entropy steps over [0, g-2).
  const std::int64_t src = 0;                         // group 0
  const std::int64_t dst = 5 * a * p + 3;             // group 5
  std::set<std::int64_t> intermediates;
  for (int e = 0; e < t.valiant_choices(); ++e) {
    const auto path = t.Route(src, dst, static_cast<std::uint64_t>(e));
    // First kSwitchDown channel is the src-group -> intermediate global hop.
    std::int64_t gi = -1;
    for (auto ch : path) {
      if (t.Channel(ch).kind == ChannelKind::kSwitchDown) {
        gi = t.Channel(ch).to.index / a;
        break;
      }
    }
    ASSERT_GE(gi, 0);
    EXPECT_NE(gi, 0);
    EXPECT_NE(gi, 5);
    intermediates.insert(gi);
  }
  EXPECT_EQ(intermediates.size(), 7u);
}

TEST(Dragonfly, ValiantLengthensJourneysButKeepsAccessInvariant) {
  const Dragonfly min_df(4, 2, 2, Dragonfly::Routing::kMin);
  const Dragonfly val_df(4, 2, 2, Dragonfly::Routing::kValiant);
  // The Valiant detour costs path length (the price of load balance)...
  EXPECT_GT(val_df.Links().MeanLinks(), min_df.Links().MeanLinks());
  EXPECT_EQ(min_df.Links().max_links(), 5);
  EXPECT_EQ(val_df.Links().max_links(), 7);
  // ...but tap legs are pinned to minimal routing in both modes.
  EXPECT_EQ(val_df.AccessLinks().MeanLinks(),
            min_df.AccessLinks().MeanLinks());
  for (std::int64_t node = 0; node < min_df.num_nodes(); ++node) {
    EXPECT_EQ(val_df.RouteToTap(node), min_df.RouteToTap(node));
    EXPECT_EQ(val_df.RouteFromTap(node), min_df.RouteFromTap(node));
  }
}

TEST(Dragonfly, TwoGroupDragonflyDegeneratesToMinRouting) {
  // a=1, h=1 -> g=2: no eligible intermediate group, Valiant falls back to
  // minimal routing (and the census must agree).
  const Dragonfly min_df(1, 2, 1, Dragonfly::Routing::kMin);
  const Dragonfly val_df(1, 2, 1, Dragonfly::Routing::kValiant);
  EXPECT_EQ(val_df.valiant_choices(), 0);
  for (std::int64_t s = 0; s < min_df.num_nodes(); ++s) {
    for (std::int64_t d = 0; d < min_df.num_nodes(); ++d) {
      if (s == d) continue;
      EXPECT_EQ(val_df.Route(s, d, 123), min_df.Route(s, d, 0));
    }
  }
  EXPECT_EQ(val_df.Links().MeanLinks(), min_df.Links().MeanLinks());
}

TEST(Dragonfly, RejectsBadParameters) {
  EXPECT_THROW(Dragonfly(0, 1, 1), std::invalid_argument);
  EXPECT_THROW(Dragonfly(1, 0, 1), std::invalid_argument);
  EXPECT_THROW(Dragonfly(1, 1, 0), std::invalid_argument);
  EXPECT_THROW(Dragonfly(128, 1, 64), std::invalid_argument);  // a*h > 4096
  EXPECT_THROW(Dragonfly(64, 1024, 64), std::invalid_argument);
  // Passes the a*h and node caps but its intra-group cliques alone would
  // need ~8.6e9 channel entries; must throw, not OOM.
  EXPECT_THROW(Dragonfly(2047, 1, 1), std::invalid_argument);
}

// --- Acceptance: dragonfly clusters end to end -----------------------------

SystemConfig DragonflySystem(TopologySpec::Routing routing) {
  // Four dragonfly a=2, p=2, h=1 clusters (12 nodes each) behind the default
  // ICN2 tree — the preset's shape with one routing mode for all clusters.
  std::vector<ClusterConfig> clusters;
  for (int i = 0; i < 4; ++i) {
    ClusterConfig c{1, Net1(), Net2()};
    c.icn1_topo = TopologySpec::Dragonfly(2, 2, 1, routing);
    clusters.push_back(c);
  }
  return SystemConfig(4, std::move(clusters), Net1(), MessageFormat{16, 64});
}

class DragonflyAgreement
    : public ::testing::TestWithParam<TopologySpec::Routing> {};

TEST_P(DragonflyAgreement, ModelTracksSimulationWithinTheMeshTreeBand) {
  // The same tolerance band tests/workload_test.cc holds the mesh/tree
  // systems to (12-20%): light-to-moderate load, mean latency.
  const auto sys = DragonflySystem(GetParam());
  LatencyModel model(sys);
  CocSystemSim sim(sys);
  SimConfig cfg;
  cfg.lambda_g = 2e-4;
  cfg.warmup_messages = 1000;
  cfg.measured_messages = 10000;
  cfg.drain_messages = 1000;
  const auto sr = sim.Run(cfg);
  const auto mr = model.Evaluate(cfg.lambda_g);
  ASSERT_FALSE(mr.saturated);
  const double err = 100.0 *
                     std::fabs(mr.mean_latency - sr.latency.Mean()) /
                     sr.latency.Mean();
  EXPECT_LT(err, 20.0) << "analysis=" << mr.mean_latency
                       << " sim=" << sr.latency.Mean();
}

TEST_P(DragonflyAgreement, SaturationRateBracketsTheSimulation) {
  // Fig. 3-6-style saturation agreement: the simulated blow-up point must
  // bracket the model's saturation dial. At half the dial the simulator
  // still sits near its light-load latency; at 1.5x the dial it has blown
  // up by an order of magnitude. (The cut-through C/D saturates somewhat
  // before the model's Eq. 36-38 store-forward dial — the same offset the
  // tree systems show, see CondisMode — so the band is a factor bracket,
  // not an equality.)
  const auto sys = DragonflySystem(GetParam());
  LatencyModel model(sys);
  const double sat = model.SaturationRate(1e-1);
  ASSERT_GT(sat, 0.0);
  CocSystemSim sim(sys);
  SimConfig cfg;
  cfg.warmup_messages = 500;
  cfg.measured_messages = 5000;
  cfg.drain_messages = 500;

  cfg.lambda_g = sat * 0.02;
  const double light = sim.Run(cfg).latency.Mean();
  cfg.lambda_g = sat * 0.5;
  const double below = sim.Run(cfg).latency.Mean();
  cfg.lambda_g = sat * 1.5;
  const double above = sim.Run(cfg).latency.Mean();
  EXPECT_LT(below, 4.0 * light) << "sim saturated below half the model dial";
  EXPECT_GT(above, 10.0 * light)
      << "sim still unsaturated well past the model dial";
}

INSTANTIATE_TEST_SUITE_P(Routing, DragonflyAgreement,
                         ::testing::Values(TopologySpec::Routing::kMin,
                                           TopologySpec::Routing::kValiant),
                         [](const ::testing::TestParamInfo<
                             TopologySpec::Routing>& info) {
                           return info.param ==
                                          TopologySpec::Routing::kValiant
                                      ? "valiant"
                                      : "min";
                         });

TEST(DragonflyPreset, LoadsAndRunsEndToEnd) {
  const auto sys = MakeDragonflySystem(MessageFormat{16, 64});
  ASSERT_EQ(sys.num_clusters(), 4);
  EXPECT_EQ(sys.TotalNodes(), 48);
  EXPECT_EQ(sys.icn1_topology(0).Name(), "dragonfly 2,2,1");
  EXPECT_EQ(sys.icn1_topology(3).Name(), "dragonfly 2,2,1 (valiant)");
  // ECN1 mirrors the ICN1 spec; equal resolved specs share one instance.
  EXPECT_EQ(&sys.icn1_topology(0), &sys.ecn1_topology(0));
  EXPECT_EQ(&sys.icn1_topology(0), &sys.icn1_topology(1));
  EXPECT_NE(&sys.icn1_topology(0), &sys.icn1_topology(2));
  EXPECT_TRUE(sys.icn2_exact_fit());

  LatencyModel model(sys);
  EXPECT_FALSE(model.Evaluate(1e-4).saturated);
  CocSystemSim sim(sys);
  SimConfig cfg;
  cfg.lambda_g = 1e-4;
  cfg.warmup_messages = 300;
  cfg.measured_messages = 3000;
  cfg.drain_messages = 300;
  const auto a = sim.Run(cfg);
  EXPECT_EQ(a.delivered, 3600);
  EXPECT_GT(a.inter_latency.Count(), 0u);
  const auto b = sim.Run(cfg);
  EXPECT_DOUBLE_EQ(a.latency.Mean(), b.latency.Mean());
}

TEST(DragonflyIcn2, CarriesInterClusterTraffic) {
  // A dragonfly as the global network: 6 C/D slots for 4 clusters (partial
  // occupancy — the model switches to the occupied-slot census).
  std::vector<ClusterConfig> clusters(4, ClusterConfig{1, Net1(), Net2()});
  const SystemConfig sys(4, clusters, Net1(), MessageFormat{16, 64},
                         TopologySpec::Dragonfly(2, 1, 1));
  EXPECT_EQ(sys.icn2_topology().Name(), "dragonfly 2,1,1");
  EXPECT_FALSE(sys.icn2_exact_fit());
  EXPECT_EQ(sys.icn2_depth(), 0);
  LatencyModel model(sys);
  EXPECT_TRUE(std::isfinite(model.Evaluate(1e-4).mean_latency));
  CocSystemSim sim(sys);
  SimConfig cfg;
  cfg.lambda_g = 1e-4;
  cfg.warmup_messages = 200;
  cfg.measured_messages = 2000;
  cfg.drain_messages = 200;
  const auto r = sim.Run(cfg);
  EXPECT_EQ(r.delivered, 2400);
  EXPECT_GT(r.icn2_util.Mean(r.duration), 0.0);
}

}  // namespace
}  // namespace coc
