// Tests for the analytical model: hop distributions (Eq. 6/8/9 vs. the exact
// topology census), M/G/1 primitives, stage recursion, intra/inter latency
// components, and paper-level saturation behaviour of the full model.
#include <cmath>
#include <limits>

#include "gtest/gtest.h"
#include "workload/workload.h"
#include "oracle/hop_distribution.h"
#include "oracle/intra_cluster.h"
#include "oracle/inter_cluster.h"
#include "oracle/latency_model.h"
#include "model/mg1.h"
#include "oracle/stage_recursion.h"
#include "system/presets.h"
#include "topology/m_port_n_tree.h"

namespace coc {
namespace {

struct TreeCase {
  int m;
  int n;
};

class HopTest : public ::testing::TestWithParam<TreeCase> {};

TEST_P(HopTest, ProbabilitiesSumToOne) {
  const auto [m, n] = GetParam();
  HopDistribution d(m, n);
  double total = 0;
  for (int h = 1; h <= n; ++h) {
    EXPECT_GT(d.P(h), 0);
    total += d.P(h);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_EQ(d.P(0), 0.0);
  EXPECT_EQ(d.P(n + 1), 0.0);
}

TEST_P(HopTest, MatchesExactTopologyCensus) {
  const auto [m, n] = GetParam();
  HopDistribution d(m, n);
  MPortNTree tree(m, n);
  const auto census = tree.NcaCensus(0);
  const double denom = static_cast<double>(tree.num_nodes() - 1);
  for (int h = 1; h <= n; ++h) {
    EXPECT_NEAR(d.P(h),
                static_cast<double>(census[static_cast<std::size_t>(h - 1)]) /
                    denom,
                1e-12)
        << "h=" << h;
  }
}

TEST_P(HopTest, ClosedFormEqualsNumericMean) {
  const auto [m, n] = GetParam();
  HopDistribution d(m, n);
  EXPECT_NEAR(d.MeanLinksRoundTrip(), HopDistribution::MeanLinksClosedForm(m, n),
              1e-9);
  EXPECT_NEAR(d.MeanLinksOneWay(), d.MeanLinksRoundTrip() / 2.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Grid, HopTest,
                         ::testing::Values(TreeCase{4, 1}, TreeCase{4, 2},
                                           TreeCase{4, 3}, TreeCase{4, 5},
                                           TreeCase{6, 2}, TreeCase{8, 1},
                                           TreeCase{8, 2}, TreeCase{8, 3},
                                           TreeCase{12, 2}),
                         [](const ::testing::TestParamInfo<TreeCase>& info) {
                           const std::string m = std::to_string(info.param.m);
                           const std::string n = std::to_string(info.param.n);
                           return "m" + m + "n" + n;
                         });

TEST(HopDistribution, EmpiricalConstructorNormalizes) {
  HopDistribution d(std::vector<double>{1.0, 3.0});
  EXPECT_NEAR(d.P(1), 0.25, 1e-12);
  EXPECT_NEAR(d.P(2), 0.75, 1e-12);
  EXPECT_NEAR(d.MeanLinksRoundTrip(), 2 * (0.25 + 2 * 0.75), 1e-12);
}

TEST(HopDistribution, RejectsBadInput) {
  EXPECT_THROW(HopDistribution(3, 2), std::invalid_argument);
  EXPECT_THROW(HopDistribution(4, 0), std::invalid_argument);
  EXPECT_THROW(HopDistribution(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(HopDistribution(std::vector<double>{0.0, 0.0}),
               std::invalid_argument);
}

TEST(Mg1, ZeroArrivalRateNoWait) {
  EXPECT_EQ(MG1Wait(0.0, 10.0, 4.0), 0.0);
}

TEST(Mg1, DeterministicServiceMatchesMD1) {
  // M/D/1: W = rho * x / (2 (1 - rho)).
  const double lambda = 0.05, x = 10.0;
  const double rho = lambda * x;
  EXPECT_NEAR(MG1Wait(lambda, x, 0.0), rho * x / (2 * (1 - rho)), 1e-12);
}

TEST(Mg1, ExponentialServiceMatchesMM1) {
  // M/M/1: W = rho / (mu - lambda); sigma^2 = x^2 for exponential service.
  const double lambda = 0.02, x = 20.0;
  const double rho = lambda * x;
  EXPECT_NEAR(MG1Wait(lambda, x, x * x), rho / (1.0 / x - lambda) * (1 / x) * x,
              1e-9);
  EXPECT_NEAR(MG1Wait(lambda, x, x * x), lambda * 2 * x * x / (2 * (1 - rho)),
              1e-12);
}

TEST(Mg1, SaturationYieldsInfinity) {
  EXPECT_TRUE(std::isinf(MG1Wait(0.1, 10.0, 0.0)));
  EXPECT_TRUE(std::isinf(MG1Wait(0.2, 10.0, 0.0)));
}

TEST(StageRecursion, NoInteriorReturnsFinalService) {
  EXPECT_DOUBLE_EQ(StageRecursionT0({}, 5.0, 0.1, true), 5.0);
  EXPECT_DOUBLE_EQ(StageRecursionT0({}, 5.0, 0.1, false), 5.0);
}

TEST(StageRecursion, ZeroEtaGivesBareTransferOfStageZero) {
  const std::vector<StageSpec> interior{{3.0, 0.0}, {4.0, 0.0}};
  EXPECT_DOUBLE_EQ(StageRecursionT0(interior, 5.0, 0.0, true), 3.0);
}

TEST(StageRecursion, HandComputedTwoStage) {
  // K = 2: T_1 = 5 (final), W_1 = 0.5 * 0.01 * 25 = 0.125,
  // T_0 = 3 + 0.125.
  const std::vector<StageSpec> interior{{3.0, 0.02}};
  EXPECT_DOUBLE_EQ(StageRecursionT0(interior, 5.0, 0.01, true), 3.125);
  EXPECT_DOUBLE_EQ(StageRecursionT0(interior, 5.0, 0.01, false), 3.0);
}

TEST(StageRecursion, HandComputedThreeStage) {
  // Stages: interior {t=2, eta=0.1}, {t=3, eta=0.2}; final 4 with eta 0.05.
  // W_2 = 0.5*0.05*16 = 0.4; T_1 = 3 + 0.4 = 3.4; W_1 = 0.5*0.2*3.4^2 = 1.156;
  // T_0 = 2 + 0.4 + 1.156 = 3.556.
  const std::vector<StageSpec> interior{{2.0, 0.1}, {3.0, 0.2}};
  EXPECT_NEAR(StageRecursionT0(interior, 4.0, 0.05, true), 3.556, 1e-12);
}

TEST(IntraCluster, ZeroLoadNetworkLatencyIsExact) {
  const MessageFormat msg{32, 256};
  const auto sys = MakeSystem1120(msg);
  const ModelOptions opts;
  const auto r = ComputeIntra(sys, 31, 0.0, Workload{}, opts);  // n_i = 3 cluster
  // At zero load all waits vanish: T_h = M t_cs for h > 1 and M t_cn for
  // h = 1, so T_in = P_1 M t_cn + (1 - P_1) M t_cs.
  const HopDistribution hops(8, 3);
  const double t_cn = Net1().TCn(256), t_cs = Net1().TCs(256);
  const double expected =
      hops.P(1) * 32 * t_cn + (1.0 - hops.P(1)) * 32 * t_cs;
  EXPECT_NEAR(r.t_in, expected, 1e-9);
  EXPECT_EQ(r.w_in, 0.0);
  EXPECT_FALSE(r.saturated);
  // Eq. (19) at any load: E_in = sum P_h (2(h-1) t_cs + 2 t_cn).
  double e = 0;
  for (int h = 1; h <= 3; ++h) e += hops.P(h) * (2 * (h - 1) * t_cs + 2 * t_cn);
  EXPECT_NEAR(r.e_in, e, 1e-9);
}

TEST(IntraCluster, LatencyIncreasesWithLoad) {
  const auto sys = MakeSystem1120(MessageFormat{32, 256});
  const ModelOptions opts;
  double prev = 0;
  for (double lg : {1e-5, 1e-4, 3e-4, 5e-4}) {
    const auto r = ComputeIntra(sys, 31, lg, Workload{}, opts);
    EXPECT_GT(r.l_in, prev);
    prev = r.l_in;
  }
}

TEST(InterCluster, ZeroLoadPairLatencyIsExact) {
  const MessageFormat msg{32, 256};
  const auto sys = MakeSystem1120(msg);
  const ModelOptions opts;
  const LinkDistribution icn2 = TreeLinkDistribution(8, 2);
  const auto r = ComputeInterPair(sys, 31, 30, 0.0, icn2, Workload{}, opts);
  // Zero load: stage-0 service is the bare ECN1(i) transfer time.
  EXPECT_NEAR(r.t_ex, 32 * Net2().TCs(256), 1e-9);
  EXPECT_EQ(r.w_ex, 0.0);
  EXPECT_EQ(r.w_c, 0.0);
  // Tail drain: mean over (r, v, l) of the Eq. (34) expression.
  const HopDistribution h3(8, 3);
  const double mean_r = h3.MeanLinksOneWay();
  const double mean_l2 = icn2.MeanLinks();
  const double expected_e = (mean_r - 1) * Net2().TCs(256) +
                            mean_l2 * Net1().TCs(256) +
                            (mean_r - 1) * Net2().TCs(256) +
                            2 * Net2().TCn(256);
  EXPECT_NEAR(r.e_ex, expected_e, 1e-9);
  EXPECT_FALSE(r.saturated);
}

TEST(InterCluster, ConcentratorSaturationSetsTheLimit) {
  // The paper's figures saturate where the concentrator M/G/1 does:
  // lambda_I2 * M t_cs(ICN2) = 1. For the N=1120 system, M=32, d_m=256 and
  // the (128, 128) pair: lambda_g ~ 5.2e-4.
  const auto sys = MakeSystem1120(MessageFormat{32, 256});
  const ModelOptions opts;
  const LinkDistribution icn2 = TreeLinkDistribution(8, 2);
  const auto ok = ComputeInterPair(sys, 31, 30, 4.5e-4, icn2, Workload{}, opts);
  EXPECT_FALSE(ok.saturated);
  const auto sat = ComputeInterPair(sys, 31, 30, 5.5e-4, icn2, Workload{}, opts);
  EXPECT_TRUE(sat.saturated);
}

TEST(InterCluster, HomogeneousPairsInvariantToLambdaI2Mode) {
  const auto sys = MakeTinySystem(MessageFormat{32, 256});
  ModelOptions mean_opts, harm_opts;
  mean_opts.lambda_i2 = ModelOptions::LambdaI2::kPairMean;
  harm_opts.lambda_i2 = ModelOptions::LambdaI2::kHarmonic;
  const LinkDistribution icn2 = TreeLinkDistribution(4, 1);
  const auto a = ComputeInterPair(sys, 0, 1, 1e-4, icn2, Workload{}, mean_opts);
  const auto b = ComputeInterPair(sys, 0, 1, 1e-4, icn2, Workload{}, harm_opts);
  // Equal cluster sizes: (N_i U_i + N_j U_j)/2 == N_i N_j (U_i+U_j)/(N_i+N_j).
  EXPECT_NEAR(a.l_ex, b.l_ex, 1e-12);
}

TEST(InterCluster, HeterogeneousPairsDifferByLambdaI2Mode) {
  const auto sys = MakeSystem1120(MessageFormat{32, 256});
  ModelOptions mean_opts, harm_opts;
  mean_opts.lambda_i2 = ModelOptions::LambdaI2::kPairMean;
  harm_opts.lambda_i2 = ModelOptions::LambdaI2::kHarmonic;
  const LinkDistribution icn2 = TreeLinkDistribution(8, 2);
  // Pair (0, 31): N = 8 vs 128 — strongly heterogeneous.
  const auto a = ComputeInterPair(sys, 0, 31, 3e-4, icn2, Workload{}, mean_opts);
  const auto b = ComputeInterPair(sys, 0, 31, 3e-4, icn2, Workload{}, harm_opts);
  EXPECT_NE(a.w_c, b.w_c);
}

TEST(InterCluster, RelaxingFactorVariantsOrderIcn2Waiting) {
  // With Table 2, beta_I2/beta_E = 1/2: the default (inverse-capacity)
  // factor lowers ICN2 stage waiting below the factor-free variant, while
  // the as-printed fraction (delta = 2) raises it.
  const auto sys = MakeSystem1120(MessageFormat{32, 256});
  ModelOptions inv, printed, off;
  printed.relaxing_factor = ModelOptions::RelaxingFactor::kAsPrinted;
  off.relaxing_factor = ModelOptions::RelaxingFactor::kOff;
  const LinkDistribution icn2 = TreeLinkDistribution(8, 2);
  const auto a = ComputeInterPair(sys, 31, 30, 4e-4, icn2, Workload{}, inv);
  const auto b = ComputeInterPair(sys, 31, 30, 4e-4, icn2, Workload{}, off);
  const auto c = ComputeInterPair(sys, 31, 30, 4e-4, icn2, Workload{}, printed);
  EXPECT_LT(a.t_ex, b.t_ex);
  EXPECT_LT(b.t_ex, c.t_ex);
}

TEST(InterCluster, SupplyLimitedCondisServiceSaturatesEarlier) {
  // Under cut-through forwarding the C/D service is M max(t_cs_E, t_cs_I2)
  // = M t_cs(Net.2), about double the paper's M t_cs(Net.1): the saturation
  // rate drops accordingly.
  const auto sys = MakeSystem1120(MessageFormat{32, 256});
  ModelOptions supply;
  supply.condis_service = ModelOptions::CondisService::kSupplyLimited;
  LatencyModel paper_model(sys), supply_model(sys, supply);
  const double s_paper = paper_model.SaturationRate(2e-3);
  const double s_supply = supply_model.SaturationRate(2e-3);
  EXPECT_LT(s_supply, s_paper);
  EXPECT_NEAR(s_supply / s_paper, Net1().TCs(256) / Net2().TCs(256), 0.05);
}

TEST(LatencyModel, FiniteAndMonotoneBelowSaturation) {
  LatencyModel model(MakeSystem1120(MessageFormat{32, 256}));
  double prev = 0;
  for (double lg : {5e-5, 1e-4, 2e-4, 3e-4, 4e-4, 4.5e-4}) {
    const auto r = model.Evaluate(lg);
    EXPECT_FALSE(r.saturated) << "lambda_g=" << lg;
    EXPECT_TRUE(std::isfinite(r.mean_latency));
    EXPECT_GT(r.mean_latency, prev);
    prev = r.mean_latency;
  }
}

TEST(LatencyModel, SaturationPointNearPaperFigure3) {
  // Fig. 3's x-axis ends at 5e-4 with the latency exploding there.
  LatencyModel model(MakeSystem1120(MessageFormat{32, 256}));
  const double sat = model.SaturationRate(2e-3);
  EXPECT_GT(sat, 3.5e-4);
  EXPECT_LT(sat, 7e-4);
}

TEST(LatencyModel, SaturationRateRobustToGenerousUpperBound) {
  // A loose search bound must not wash out a small saturation rate.
  LatencyModel model(MakeSystem1120(MessageFormat{32, 256}));
  const double tight = model.SaturationRate(2e-3);
  const double loose = model.SaturationRate(1.0);
  EXPECT_NEAR(loose, tight, 0.02 * tight);
  EXPECT_GT(loose, 1e-4);
}

TEST(LatencyModel, DoublingMessageLengthHalvesSaturation) {
  // Figs. 3 vs 4: the M=64 axis ends at half the M=32 axis.
  LatencyModel m32(MakeSystem1120(MessageFormat{32, 256}));
  LatencyModel m64(MakeSystem1120(MessageFormat{64, 256}));
  const double s32 = m32.SaturationRate(2e-3);
  const double s64 = m64.SaturationRate(2e-3);
  EXPECT_NEAR(s64 / s32, 0.5, 0.05);
}

TEST(LatencyModel, System544SaturatesNearPaperFigure5) {
  // Fig. 5's x-axis ends at 1e-3.
  LatencyModel model(MakeSystem544(MessageFormat{32, 256}));
  const double sat = model.SaturationRate(4e-3);
  EXPECT_GT(sat, 7e-4);
  EXPECT_LT(sat, 1.4e-3);
}

TEST(LatencyModel, LargerFlitsGiveHigherLatency) {
  LatencyModel d256(MakeSystem1120(MessageFormat{32, 256}));
  LatencyModel d512(MakeSystem1120(MessageFormat{32, 512}));
  EXPECT_GT(d512.Evaluate(1e-4).mean_latency,
            d256.Evaluate(1e-4).mean_latency);
}

TEST(LatencyModel, Icn2BandwidthIncreaseHelps) {
  // The Fig. 7 experiment: +20% ICN2 bandwidth lowers latency near
  // saturation and pushes the saturation point out.
  const MessageFormat msg{128, 256};
  const auto base = MakeSystem544(msg);
  auto boosted_icn2 = Net1();
  boosted_icn2.bandwidth *= 1.2;
  std::vector<ClusterConfig> clusters;
  for (int i = 0; i < base.num_clusters(); ++i) clusters.push_back(base.cluster(i));
  const SystemConfig boosted(base.m(), clusters, boosted_icn2, msg);

  LatencyModel model_base(base), model_boost(boosted);
  const double probe = 2e-4;
  EXPECT_LT(model_boost.Evaluate(probe).mean_latency,
            model_base.Evaluate(probe).mean_latency);
  EXPECT_GT(model_boost.SaturationRate(2e-3), model_base.SaturationRate(2e-3));
}

TEST(LatencyModel, PerClusterDecompositionConsistent) {
  LatencyModel model(MakeSystem1120(MessageFormat{32, 256}));
  const auto r = model.Evaluate(2e-4);
  ASSERT_EQ(r.clusters.size(), 32u);
  double weighted = 0;
  for (int i = 0; i < 32; ++i) {
    const auto& cl = r.clusters[static_cast<std::size_t>(i)];
    EXPECT_NEAR(cl.blended,
                cl.u * cl.inter.l_out + (1 - cl.u) * cl.intra.l_in, 1e-9);
    weighted += model.system().NodesInCluster(i) /
                static_cast<double>(model.system().TotalNodes()) * cl.blended;
  }
  EXPECT_NEAR(weighted, r.mean_latency, 1e-9);
}

TEST(LatencyModel, ZeroRateGivesZeroLoadLatency) {
  LatencyModel model(MakeSystem544(MessageFormat{32, 256}));
  const auto r = model.Evaluate(0.0);
  EXPECT_FALSE(r.saturated);
  EXPECT_GT(r.mean_latency, 0.0);
  // All queueing terms vanish.
  for (const auto& cl : r.clusters) {
    EXPECT_EQ(cl.intra.w_in, 0.0);
    EXPECT_EQ(cl.inter.w_d, 0.0);
  }
}

TEST(EffectiveU, LocalityEdgeCases) {
  // The uniform workload reproduces Eq. (2); the cluster-local one overrides
  // U with 1 - p (mirroring the simulator's kClusterLocal edge cases).
  std::vector<ClusterConfig> clusters = {ClusterConfig{1, Net1(), Net2()},
                                         ClusterConfig{1, Net1(), Net2()},
                                         ClusterConfig{1, Net1(), Net2()},
                                         ClusterConfig{1, Net1(), Net2()}};
  SystemConfig sys(4, clusters, Net1(), MessageFormat{16, 64});
  EXPECT_EQ(Workload::Uniform().EffectiveU(sys, 0),
            sys.OutgoingProbability(0));
  EXPECT_NEAR(Workload::ClusterLocal(0.75).EffectiveU(sys, 0), 0.25, 1e-15);
}

TEST(LatencyModel, LocalityLowersInterTrafficShareInBlend) {
  const auto sys = MakeTinySystem(MessageFormat{16, 64});
  LatencyModel model(sys, Workload::ClusterLocal(0.9));
  const auto r = model.Evaluate(1e-4);
  for (const auto& cl : r.clusters) {
    EXPECT_NEAR(cl.u, 0.1, 1e-12);
  }
}

TEST(LatencyModel, PartialIcn2OccupancyStillEvaluates) {
  std::vector<ClusterConfig> clusters(3, ClusterConfig{1, Net1(), Net2()});
  SystemConfig sys(4, clusters, Net1(), MessageFormat{16, 64});
  LatencyModel model(sys);
  const auto r = model.Evaluate(1e-4);
  EXPECT_TRUE(std::isfinite(r.mean_latency));
}

}  // namespace
}  // namespace coc
