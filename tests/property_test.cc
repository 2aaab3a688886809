// Property-based tests: invariants that must hold over whole parameter
// grids (tree shapes, message formats, load levels), exercised with
// parameterized gtest sweeps.
#include <algorithm>
#include <cmath>
#include <vector>

#include "gtest/gtest.h"
#include "oracle/hop_distribution.h"
#include "oracle/latency_model.h"
#include "oracle/stage_recursion.h"
#include "system/presets.h"
#include "system/system_config.h"
#include "topology/m_port_n_tree.h"

namespace coc {
namespace {

// ---------------------------------------------------------------------------
// Topology properties over a (m, n) grid.

struct TreeCase {
  int m;
  int n;
};

class TreeProperties : public ::testing::TestWithParam<TreeCase> {};

TEST_P(TreeProperties, RouteIsSymmetricInLengthOnly) {
  // Up*/down* routes need not use the same switches in both directions, but
  // |route(a,b)| == |route(b,a)| always (NCA symmetry).
  const auto [m, n] = GetParam();
  MPortNTree t(m, n);
  const std::int64_t stride = std::max<std::int64_t>(1, t.num_nodes() / 13);
  for (std::int64_t a = 0; a < t.num_nodes(); a += stride) {
    for (std::int64_t b = a + 1; b < t.num_nodes(); b += stride) {
      EXPECT_EQ(t.Route(a, b).size(), t.Route(b, a).size());
    }
  }
}

TEST_P(TreeProperties, RoutesNeverRevisitChannels) {
  const auto [m, n] = GetParam();
  MPortNTree t(m, n);
  const std::int64_t stride = std::max<std::int64_t>(1, t.num_nodes() / 17);
  for (std::int64_t a = 0; a < t.num_nodes(); a += stride) {
    for (std::int64_t b = 0; b < t.num_nodes(); b += stride) {
      if (a == b) continue;
      auto path = t.Route(a, b);
      std::sort(path.begin(), path.end());
      EXPECT_EQ(std::adjacent_find(path.begin(), path.end()), path.end())
          << a << "->" << b;
    }
  }
}

TEST_P(TreeProperties, EveryChannelAppearsInSomeRoute) {
  // No dead wiring: all-pairs routing plus spine taps covers every channel.
  const auto [m, n] = GetParam();
  MPortNTree t(m, n);
  if (t.num_nodes() > 64) GTEST_SKIP() << "all-pairs too large";
  std::vector<bool> used(static_cast<std::size_t>(t.num_channels()), false);
  for (std::int64_t a = 0; a < t.num_nodes(); ++a) {
    for (std::int64_t b = 0; b < t.num_nodes(); ++b) {
      if (a == b) continue;
      for (auto c : t.Route(a, b)) used[static_cast<std::size_t>(c)] = true;
    }
  }
  std::int64_t unused = 0;
  for (bool u : used) unused += !u;
  EXPECT_EQ(unused, 0);
}

TEST_P(TreeProperties, SpinePathsAreSubpathsOfRoutes) {
  // The ascent to anchor 0's spine must coincide with the ascending phase
  // of the full route to node 0 (same channels), for every source.
  const auto [m, n] = GetParam();
  MPortNTree t(m, n);
  const std::int64_t stride = std::max<std::int64_t>(1, t.num_nodes() / 19);
  for (std::int64_t src = stride; src < t.num_nodes(); src += stride) {
    const auto ascent = t.AscendToSpine(src, 0);
    const auto route = t.Route(src, 0);
    ASSERT_LE(ascent.size(), route.size());
    for (std::size_t i = 0; i < ascent.size(); ++i) {
      EXPECT_EQ(ascent[i], route[i]) << "src=" << src << " hop=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, TreeProperties,
                         ::testing::Values(TreeCase{4, 1}, TreeCase{4, 2},
                                           TreeCase{4, 3}, TreeCase{4, 4},
                                           TreeCase{6, 2}, TreeCase{8, 2},
                                           TreeCase{8, 3}, TreeCase{10, 2}),
                         [](const ::testing::TestParamInfo<TreeCase>& info) {
                           const std::string m = std::to_string(info.param.m);
                           const std::string n = std::to_string(info.param.n);
                           return "m" + m + "n" + n;
                         });

// ---------------------------------------------------------------------------
// Model monotonicity properties over message-format and load grids.

struct FormatCase {
  int m_flits;
  double dm;
};

class ModelMonotonicity : public ::testing::TestWithParam<FormatCase> {};

TEST_P(ModelMonotonicity, LatencyIncreasesWithLoadUntilSaturation) {
  const auto [flits, dm] = GetParam();
  LatencyModel model(MakeSmallSystem(MessageFormat{flits, dm}));
  const double sat = model.SaturationRate(1e-1);
  double prev = 0;
  for (int i = 1; i <= 8; ++i) {
    const double rate = sat * i / 10.0;
    const double latency = model.Evaluate(rate).mean_latency;
    EXPECT_GT(latency, prev) << "rate=" << rate;
    prev = latency;
  }
}

TEST_P(ModelMonotonicity, LatencyIncreasesWithMessageLength) {
  const auto [flits, dm] = GetParam();
  LatencyModel shorter(MakeSmallSystem(MessageFormat{flits, dm}));
  LatencyModel longer(MakeSmallSystem(MessageFormat{flits * 2, dm}));
  EXPECT_GT(longer.Evaluate(1e-4).mean_latency,
            shorter.Evaluate(1e-4).mean_latency);
  // And the saturation point drops at least proportionally.
  EXPECT_LT(longer.SaturationRate(1e-1), shorter.SaturationRate(1e-1));
}

TEST_P(ModelMonotonicity, LatencyIncreasesWithFlitSize) {
  const auto [flits, dm] = GetParam();
  LatencyModel smaller(MakeSmallSystem(MessageFormat{flits, dm}));
  LatencyModel bigger(MakeSmallSystem(MessageFormat{flits, dm * 2}));
  EXPECT_GT(bigger.Evaluate(1e-4).mean_latency,
            smaller.Evaluate(1e-4).mean_latency);
}

INSTANTIATE_TEST_SUITE_P(Grid, ModelMonotonicity,
                         ::testing::Values(FormatCase{8, 64},
                                           FormatCase{16, 64},
                                           FormatCase{16, 256},
                                           FormatCase{32, 128},
                                           FormatCase{64, 32}),
                         [](const ::testing::TestParamInfo<FormatCase>& info) {
                           const std::string m =
                               std::to_string(info.param.m_flits);
                           const std::string d = std::to_string(
                               static_cast<int>(info.param.dm));
                           return "M" + m + "d" + d;
                         });

// ---------------------------------------------------------------------------
// Structural model properties.

TEST(ModelProperties, IdenticalClustersGetIdenticalLatencies) {
  const auto sys = MakeTinySystem(MessageFormat{16, 64});
  LatencyModel model(sys);
  const auto r = model.Evaluate(2e-4);
  for (std::size_t i = 1; i < r.clusters.size(); ++i) {
    EXPECT_NEAR(r.clusters[i].blended, r.clusters[0].blended, 1e-9);
    EXPECT_NEAR(r.clusters[i].intra.l_in, r.clusters[0].intra.l_in, 1e-9);
    EXPECT_NEAR(r.clusters[i].inter.l_out, r.clusters[0].inter.l_out, 1e-9);
  }
}

TEST(ModelProperties, DeeperClustersSeeHigherIntraLatency) {
  const auto sys = MakeSmallSystem(MessageFormat{16, 64});  // n in {1,2,3}
  LatencyModel model(sys);
  const auto r = model.Evaluate(1e-4);
  EXPECT_LT(r.clusters[0].intra.l_in, r.clusters[3].intra.l_in);  // n=1 < n=2
  EXPECT_LT(r.clusters[3].intra.l_in, r.clusters[7].intra.l_in);  // n=2 < n=3
}

TEST(ModelProperties, FasterNetworksNeverHurt) {
  // Scaling every bandwidth up scales latency down at any fixed rate.
  const auto base = MakeSmallSystem(MessageFormat{16, 64});
  std::vector<ClusterConfig> clusters;
  for (int i = 0; i < base.num_clusters(); ++i) {
    ClusterConfig c = base.cluster(i);
    c.icn1.bandwidth *= 2;
    c.ecn1.bandwidth *= 2;
    clusters.push_back(c);
  }
  auto icn2 = base.icn2();
  icn2.bandwidth *= 2;
  const SystemConfig faster(base.m(), clusters, icn2, base.message());
  LatencyModel slow_model(base), fast_model(faster);
  for (double rate : {1e-4, 5e-4, 1e-3}) {
    EXPECT_LT(fast_model.Evaluate(rate).mean_latency,
              slow_model.Evaluate(rate).mean_latency);
  }
}

TEST(ModelProperties, LocalityFractionMonotone) {
  // More locality => lower latency and higher saturation, monotonically.
  const auto sys = MakeSmallSystem(MessageFormat{16, 64});
  double prev_latency = 1e100;
  double prev_sat = 0;
  for (double p : {0.2, 0.5, 0.8, 0.95}) {
    LatencyModel model(sys, Workload::ClusterLocal(p));
    const double latency = model.Evaluate(1e-3).mean_latency;
    const double sat = model.SaturationRate(1.0);
    EXPECT_LT(latency, prev_latency) << "p=" << p;
    EXPECT_GT(sat, prev_sat) << "p=" << p;
    prev_latency = latency;
    prev_sat = sat;
  }
}

TEST(ModelProperties, StageRecursionMonotoneInEta) {
  // T_0 is nondecreasing in every stage's channel rate.
  const std::vector<double> etas = {0.0, 0.001, 0.01, 0.05};
  double prev = 0;
  for (double eta : etas) {
    const std::vector<StageSpec> interior(5, StageSpec{10.0, eta});
    const double t0 = StageRecursionT0(interior, 8.0, eta, true);
    EXPECT_GE(t0, prev);
    prev = t0;
  }
}

TEST(ModelProperties, HopDistributionStochasticDominance) {
  // Deeper trees have stochastically longer journeys: the CDF of the NCA
  // level for depth n+1 lies below that for depth n at every level.
  for (int m : {4, 8}) {
    for (int n = 1; n <= 4; ++n) {
      HopDistribution a(m, n), b(m, n + 1);
      double cdf_a = 0, cdf_b = 0;
      for (int h = 1; h <= n; ++h) {
        cdf_a += a.P(h);
        cdf_b += b.P(h);
        EXPECT_LE(cdf_b, cdf_a + 1e-12) << "m=" << m << " n=" << n
                                        << " h=" << h;
      }
      EXPECT_GT(b.MeanLinksRoundTrip(), a.MeanLinksRoundTrip());
    }
  }
}

}  // namespace
}  // namespace coc
