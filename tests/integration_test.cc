// Cross-module integration tests: the analytical model against the
// discrete-event simulator on whole systems — the paper's §4 experiment in
// miniature, plus the locality extension validated against the simulator's
// matching traffic pattern.
#include <cmath>

#include "gtest/gtest.h"
#include "common/rng.h"
#include "oracle/hop_distribution.h"
#include "oracle/latency_model.h"
#include "sim/coc_system_sim.h"
#include "sim/wormhole_engine.h"
#include "system/presets.h"

namespace coc {
namespace {

struct LightLoadCase {
  const char* name;
  SystemConfig (*make)(MessageFormat);
  int m_flits;
  double dm;
  double rate;  // well below saturation
  double tolerance_pct;
};

class LightLoadAgreement : public ::testing::TestWithParam<LightLoadCase> {};

TEST_P(LightLoadAgreement, ModelWithinToleranceOfSimulation) {
  const auto& c = GetParam();
  const auto sys = c.make(MessageFormat{c.m_flits, c.dm});
  LatencyModel model(sys);
  CocSystemSim sim(sys);
  SimConfig cfg;
  cfg.lambda_g = c.rate;
  cfg.warmup_messages = 1000;
  cfg.measured_messages = 10000;
  cfg.drain_messages = 1000;
  const auto sr = sim.Run(cfg);
  const double analysis = model.Evaluate(c.rate).mean_latency;
  const double err =
      100.0 * std::fabs(analysis - sr.latency.Mean()) / sr.latency.Mean();
  EXPECT_LT(err, c.tolerance_pct)
      << "analysis=" << analysis << " sim=" << sr.latency.Mean();
}

INSTANTIATE_TEST_SUITE_P(
    Paper, LightLoadAgreement,
    ::testing::Values(
        LightLoadCase{"N1120_M32_d256", MakeSystem1120, 32, 256, 1e-4, 10},
        LightLoadCase{"N1120_M32_d512", MakeSystem1120, 32, 512, 5e-5, 10},
        LightLoadCase{"N1120_M64_d256", MakeSystem1120, 64, 256, 2.5e-5, 10},
        LightLoadCase{"N544_M32_d256", MakeSystem544, 32, 256, 2e-4, 10},
        LightLoadCase{"N544_M64_d512", MakeSystem544, 64, 512, 2.5e-5, 10},
        LightLoadCase{"Small_M16_d64", MakeSmallSystem, 16, 64, 2e-4, 10}),
    [](const ::testing::TestParamInfo<LightLoadCase>& info) {
      return info.param.name;
    });

TEST(Integration, SimTracksModelShapeAcrossLoad) {
  // Both curves must be increasing, with the simulation above the model
  // (the model omits contention effects) and the gap widening with load.
  const auto sys = MakeSystem544(MessageFormat{32, 256});
  LatencyModel model(sys);
  CocSystemSim sim(sys);
  double prev_sim = 0, prev_model = 0, prev_gap = -1e9;
  for (double rate : {1e-4, 3e-4, 5e-4}) {
    SimConfig cfg;
    cfg.lambda_g = rate;
    cfg.warmup_messages = 1000;
    cfg.measured_messages = 10000;
    cfg.drain_messages = 1000;
    const double s = sim.Run(cfg).latency.Mean();
    const double m = model.Evaluate(rate).mean_latency;
    EXPECT_GT(s, prev_sim);
    EXPECT_GT(m, prev_model);
    const double gap = s - m;
    EXPECT_GT(gap, prev_gap);
    prev_sim = s;
    prev_model = m;
    prev_gap = gap;
  }
}

TEST(Integration, ModelBottleneckIsCondisOnPaperSystems) {
  // The §4 claim: the inter-cluster networks (C/D into ICN2) bind.
  for (const auto* sys :
       {new SystemConfig(MakeSystem1120(MessageFormat{32, 256})),
        new SystemConfig(MakeSystem544(MessageFormat{32, 256}))}) {
    LatencyModel model(*sys);
    const auto report = model.Bottleneck(1e-4);
    EXPECT_STREQ(report.binding, "concentrator/dispatcher");
    EXPECT_GT(report.condis_rho, report.intra_source_rho);
    delete sys;
  }
}

TEST(Integration, BottleneckRhoReachesOneAtSaturation) {
  const auto sys = MakeSystem1120(MessageFormat{32, 256});
  LatencyModel model(sys);
  const double sat = model.SaturationRate(2e-3);
  const auto at_sat = model.Bottleneck(sat * 0.999);
  EXPECT_NEAR(at_sat.condis_rho, 1.0, 0.05);
  const auto at_half = model.Bottleneck(sat * 0.5);
  EXPECT_NEAR(at_half.condis_rho, 0.5, 0.05);
}

TEST(Integration, LocalityExtensionMatchesClusterLocalSim) {
  // The locality-aware model (future-work extension) against the
  // simulator's kClusterLocal pattern on a homogeneous system.
  const auto sys = MakeTinySystem(MessageFormat{16, 64});
  const Workload workload = Workload::ClusterLocal(0.8);
  LatencyModel model(sys, workload);
  CocSystemSim sim(sys);
  SimConfig cfg;
  cfg.lambda_g = 5e-4;
  cfg.workload = workload;
  cfg.warmup_messages = 1000;
  cfg.measured_messages = 10000;
  cfg.drain_messages = 1000;
  const auto sr = sim.Run(cfg);
  const double analysis = model.Evaluate(cfg.lambda_g).mean_latency;
  const double err =
      100.0 * std::fabs(analysis - sr.latency.Mean()) / sr.latency.Mean();
  EXPECT_LT(err, 12) << "analysis=" << analysis
                     << " sim=" << sr.latency.Mean();
}

TEST(Integration, LocalityRaisesSaturationInModelAndSim) {
  // Keeping 80% of traffic local bypasses the C/D bottleneck: both sides
  // must sustain a rate far above the uniform saturation point.
  const auto sys = MakeSmallSystem(MessageFormat{16, 64});
  const Workload local = Workload::ClusterLocal(0.8);
  LatencyModel uniform_model(sys), local_model(sys, local);
  const double sat_uniform = uniform_model.SaturationRate(1e-1);
  const double sat_local = local_model.SaturationRate(1e-1);
  EXPECT_GT(sat_local, 2 * sat_uniform);

  CocSystemSim sim(sys);
  SimConfig cfg;
  cfg.lambda_g = sat_uniform * 1.5;
  cfg.workload = local;
  cfg.warmup_messages = 500;
  cfg.measured_messages = 5000;
  cfg.drain_messages = 500;
  const auto sr = sim.Run(cfg);
  // Far beyond uniform saturation, the local workload still sees sane
  // latencies (same order as the local model's prediction).
  EXPECT_LT(sr.latency.Mean(),
            5 * local_model.Evaluate(cfg.lambda_g).mean_latency);
}

TEST(Integration, ZeroLoadSimLatencyMatchesClosedFormOnAllPairs) {
  // One lone message between every (src, dst) pair must be delivered in
  // exactly sum(t_j) + (M-1) max(t_j) over its path — ties the path builder,
  // the channel time table and the engine together with zero tolerance.
  const auto sys = MakeTinySystem(MessageFormat{8, 64});
  CocSystemSim sim(sys);
  const auto& times = sim.channel_flit_times();
  for (std::int64_t src = 0; src < sys.TotalNodes(); ++src) {
    for (std::int64_t dst = 0; dst < sys.TotalNodes(); ++dst) {
      if (src == dst) continue;
      const auto path = sim.BuildPath(src, dst);
      double sum = 0, mx = 0;
      for (auto ch : path) {
        sum += times[static_cast<std::size_t>(ch)];
        mx = std::max(mx, times[static_cast<std::size_t>(ch)]);
      }
      WormholeEngine engine(times);
      std::vector<std::int32_t> depth(path.size(), 1);
      engine.AddMessage(0.0, path, depth, 8, 0);
      double delivered = -1;
      engine.Run([&delivered](const WormholeEngine::Delivery& d) {
        delivered = d.deliver_time;
      });
      ASSERT_NEAR(delivered, sum + 7 * mx, 1e-9)
          << "src=" << src << " dst=" << dst;
    }
  }
}

TEST(Integration, MeanPathLengthMatchesAnalyticalDistances) {
  // Sampling uniform pairs, the empirical mean link count must match the
  // model's D-bar bookkeeping: 2h for intra journeys (Eq. 8) and r + 2l + v
  // for inter journeys.
  const auto sys = MakeSystem544(MessageFormat{32, 256});
  CocSystemSim sim(sys);
  Rng rng(99);
  RunningStats intra_links, inter_links;
  for (int trial = 0; trial < 40000; ++trial) {
    const auto src = static_cast<std::int64_t>(
        rng.NextBounded(static_cast<std::uint64_t>(sys.TotalNodes())));
    auto dst = static_cast<std::int64_t>(
        rng.NextBounded(static_cast<std::uint64_t>(sys.TotalNodes() - 1)));
    if (dst >= src) ++dst;
    const double links = static_cast<double>(sim.BuildPath(src, dst).size());
    (sys.ClusterOfNode(src) == sys.ClusterOfNode(dst) ? intra_links
                                                      : inter_links)
        .Add(links);
  }
  // Analytical expectations: intra averaged over clusters weighted by their
  // probability of hosting an intra pair; spot-check against the per-depth
  // round-trip means instead of re-deriving the mixture exactly.
  const HopDistribution h3(4, 3), h5(4, 5);
  EXPECT_GT(intra_links.Mean(), h3.MeanLinksRoundTrip());
  EXPECT_LT(intra_links.Mean(), h5.MeanLinksRoundTrip());
  // Inter: r-bar + 2 l-bar + v-bar with each term a mixture over clusters;
  // bound by the shallowest/deepest ECN1 plus the exact ICN2 mean.
  const HopDistribution icn2(4, 3);
  const double icn2_mean = icn2.MeanLinksRoundTrip();
  EXPECT_GT(inter_links.Mean(), 2 * h3.MeanLinksOneWay() + icn2_mean - 0.5);
  EXPECT_LT(inter_links.Mean(), 2 * h5.MeanLinksOneWay() + icn2_mean + 0.5);
}

TEST(Integration, DescribeChannelCoversAllNetworks) {
  const auto sys = MakeTinySystem(MessageFormat{8, 64});
  CocSystemSim sim(sys);
  bool saw_icn1 = false, saw_ecn1 = false, saw_icn2 = false;
  for (std::int32_t ch = 0; ch < sim.num_channels(); ++ch) {
    const auto desc = sim.DescribeChannel(ch);
    EXPECT_NE(desc.find("->"), std::string::npos) << desc;
    saw_icn1 = saw_icn1 || desc.find("ICN1") != std::string::npos;
    saw_ecn1 = saw_ecn1 || desc.find("ECN1") != std::string::npos;
    saw_icn2 = saw_icn2 || desc.rfind("ICN2", 0) == 0;
  }
  EXPECT_TRUE(saw_icn1);
  EXPECT_TRUE(saw_ecn1);
  EXPECT_TRUE(saw_icn2);
  EXPECT_EQ(sim.DescribeChannel(-1), "invalid channel");
  EXPECT_EQ(sim.DescribeChannel(static_cast<std::int32_t>(sim.num_channels())),
            "invalid channel");
}

TEST(Integration, SimulatorSeedsGiveConsistentEstimates) {
  // Independent seeds at the same operating point agree within a few CI
  // half-widths — the estimator is unbiased and the CI honest.
  const auto sys = MakeTinySystem(MessageFormat{16, 64});
  CocSystemSim sim(sys);
  RunningStats means;
  double max_ci = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SimConfig cfg;
    cfg.lambda_g = 3e-4;
    cfg.seed = seed;
    cfg.warmup_messages = 500;
    cfg.measured_messages = 5000;
    cfg.drain_messages = 500;
    const auto r = sim.Run(cfg);
    means.Add(r.latency.Mean());
    max_ci = std::max(max_ci, r.latency.HalfWidth95());
  }
  EXPECT_LT(means.Max() - means.Min(), 6 * max_ci);
}

}  // namespace
}  // namespace coc
