// Tests for the unified Workload layer: the golden pin that the default
// (uniform) workload reproduces the seed model bit for bit, the message-
// length distribution's moments and sampling, the traffic generator's
// per-cluster thinning, model-vs-sim agreement for the workloads the model
// could not express before the layer existed (cluster-local, heterogeneous
// per-cluster rates, hot-spot, bimodal lengths), and the workload.* config
// keys with their did-you-mean rejection.
#include <cmath>
#include <string>
#include <vector>

#include "config/config_parser.h"
#include "gtest/gtest.h"
#include "oracle/latency_model.h"
#include "sim/coc_system_sim.h"
#include "sim/traffic.h"
#include "system/presets.h"
#include "workload/workload.h"

namespace coc {
namespace {

// ---------------------------------------------------------------------------
// Golden pin: the default Workload IS the paper's assumption 2.

TEST(WorkloadGolden, UniformWorkloadReproducesSeedModelBitForBit) {
  // The explicit uniform workload — even spelled with a unit rate table and
  // an explicit fixed length — must evaluate to the exact doubles of the
  // pre-workload-layer model at the golden operating points (the same rates
  // golden_equivalence_test pins against the seed snapshot).
  for (auto* make : {&MakeSystem1120, &MakeSystem544}) {
    const auto sys = (*make)(MessageFormat{32, 256});
    LatencyModel seed_path(sys);  // default-workload constructor
    Workload explicit_uniform = Workload::Uniform();
    explicit_uniform
        .WithRateScale(std::vector<double>(
            static_cast<std::size_t>(sys.num_clusters()), 1.0))
        .WithMessageLength(MessageLength::Fixed());
    LatencyModel workload_path(sys, explicit_uniform);
    for (double rate : {5e-5, 1e-4, 2e-4, 3e-4, 4e-4, 4.5e-4, 6e-4}) {
      const auto a = seed_path.Evaluate(rate);
      const auto b = workload_path.Evaluate(rate);
      EXPECT_EQ(a.mean_latency, b.mean_latency) << "rate=" << rate;
      EXPECT_EQ(a.saturated, b.saturated);
      ASSERT_EQ(a.clusters.size(), b.clusters.size());
      for (std::size_t i = 0; i < a.clusters.size(); ++i) {
        EXPECT_EQ(a.clusters[i].u, b.clusters[i].u);
        EXPECT_EQ(a.clusters[i].blended, b.clusters[i].blended);
      }
    }
    EXPECT_EQ(seed_path.SaturationRate(2e-3),
              workload_path.SaturationRate(2e-3));
  }
}

TEST(WorkloadGolden, UniformEffectiveUIsEq2BitForBit) {
  for (auto* make : {&MakeSystem1120, &MakeSystem544}) {
    const auto sys = (*make)(MessageFormat{32, 256});
    const Workload uniform;
    const Workload perm = Workload::Permutation();
    for (int i = 0; i < sys.num_clusters(); ++i) {
      EXPECT_EQ(uniform.EffectiveU(sys, i), sys.OutgoingProbability(i));
      EXPECT_EQ(perm.EffectiveU(sys, i), sys.OutgoingProbability(i));
    }
  }
}

TEST(WorkloadGolden, UniformTrafficIsSeedStream) {
  // The default workload must not perturb a single RNG draw: sampled flit
  // counts equal the MessageFormat's M and the (time, src, dst) stream is
  // the seed generator's (spot-pinned through statistical identity with the
  // per-cluster thinning disabled; sim_golden_test pins the full delivery
  // schedule bit for bit on top of this).
  const auto sys = MakeTinySystem(MessageFormat{16, 64});
  SimConfig cfg;
  cfg.lambda_g = 1e-3;
  cfg.seed = 7;
  const auto events = GenerateTraffic(sys, cfg, 5000);
  for (const auto& e : events) {
    EXPECT_EQ(e.flits, 16);
    EXPECT_NE(e.src, e.dst);
  }
}

// ---------------------------------------------------------------------------
// Message-length distribution.

TEST(MessageLength, FixedMomentsAreExact) {
  const MessageLength fixed;
  EXPECT_TRUE(fixed.is_fixed());
  EXPECT_EQ(fixed.MeanFlits(32), 32.0);
  EXPECT_EQ(fixed.SecondMomentFlits(32), 1024.0);
  EXPECT_EQ(fixed.VarianceFlits(32), 0.0);
  Rng rng(1);
  EXPECT_EQ(fixed.SampleFlits(32, rng), 32);
}

TEST(MessageLength, BimodalMomentsMatchClosedForm) {
  const auto len = MessageLength::Bimodal(8, 64, 0.25);
  const double mean = 0.75 * 8 + 0.25 * 64;
  const double m2 = 0.75 * 64 + 0.25 * 4096;
  EXPECT_DOUBLE_EQ(len.MeanFlits(32), mean);
  EXPECT_DOUBLE_EQ(len.SecondMomentFlits(32), m2);
  EXPECT_DOUBLE_EQ(len.VarianceFlits(32), m2 - mean * mean);
  // Sampling converges on the mixture.
  Rng rng(11);
  double sum = 0;
  int longs = 0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) {
    const int f = len.SampleFlits(32, rng);
    EXPECT_TRUE(f == 8 || f == 64);
    sum += f;
    longs += (f == 64);
  }
  EXPECT_NEAR(sum / trials, mean, 0.3);
  EXPECT_NEAR(static_cast<double>(longs) / trials, 0.25, 0.01);
}

TEST(MessageLength, ParseRoundTripsAndRejects) {
  EXPECT_EQ(MessageLength::Parse("fixed"), MessageLength::Fixed());
  const auto bi = MessageLength::Parse("bimodal:8,64,0.1");
  EXPECT_EQ(bi, MessageLength::Bimodal(8, 64, 0.1));
  EXPECT_EQ(MessageLength::Parse(bi.ToString()), bi);
  EXPECT_THROW(MessageLength::Parse("gaussian:3"), std::invalid_argument);
  EXPECT_THROW(MessageLength::Parse("bimodal:8,64"), std::invalid_argument);
  EXPECT_THROW(MessageLength::Parse("bimodal:0,64,0.1"),
               std::invalid_argument);
  EXPECT_THROW(MessageLength::Parse("bimodal:8,64,1.5"),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Workload accessors and validation.

TEST(Workload, HotspotEffectiveUAddsTheHotShare) {
  const auto sys = MakeTinySystem(MessageFormat{16, 64});
  const Workload wl = Workload::Hotspot(0.3, /*hot_node=*/0);  // cluster 0
  const double base1 = sys.OutgoingProbability(1);
  EXPECT_DOUBLE_EQ(wl.EffectiveU(sys, 1), 0.3 + 0.7 * base1);
  const double base0 = sys.OutgoingProbability(0);
  EXPECT_DOUBLE_EQ(wl.EffectiveU(sys, 0), 0.7 * base0);
}

TEST(Workload, HotspotInterDestProbabilitiesConcentrateAndNormalize) {
  const auto sys = MakeSmallSystem(MessageFormat{16, 64});
  const Workload wl = Workload::Hotspot(0.4, /*hot_node=*/0);
  const int h = sys.ClusterOfNode(0);
  for (int i = 0; i < sys.num_clusters(); ++i) {
    double sum = 0;
    double max_w = 0;
    int argmax = -1;
    for (int j = 0; j < sys.num_clusters(); ++j) {
      const double w = wl.InterDestProbability(sys, i, j);
      if (i == j) {
        EXPECT_EQ(w, 0.0);
        continue;
      }  // (braces keep -Wdangling-else quiet)
      sum += w;
      if (w > max_w) {
        max_w = w;
        argmax = j;
      }
    }
    EXPECT_NEAR(sum, 1.0, 1e-12) << "i=" << i;
    if (i != h) {
      EXPECT_EQ(argmax, h) << "i=" << i;
    }
  }
}

TEST(Workload, ValidationRejectsBadInput) {
  const auto sys = MakeTinySystem(MessageFormat{16, 64});
  Workload bad_size;
  bad_size.rate_scale = {1.0, 2.0};  // 4 clusters
  EXPECT_THROW(bad_size.Validate(sys), std::invalid_argument);
  Workload bad_rate;
  bad_rate.rate_scale = {1.0, -1.0, 1.0, 1.0};
  EXPECT_THROW(bad_rate.Validate(sys), std::invalid_argument);
  Workload bad_node = Workload::Hotspot(0.1, sys.TotalNodes());
  EXPECT_THROW(bad_node.Validate(sys), std::invalid_argument);
  Workload all_zero;
  all_zero.rate_scale = {0, 0, 0, 0};
  EXPECT_THROW(all_zero.Validate(sys), std::invalid_argument);
  EXPECT_THROW(LatencyModel(sys, bad_node), std::invalid_argument);
}

TEST(Workload, PatternNamesRoundTrip) {
  for (const auto p :
       {WorkloadPattern::kUniform, WorkloadPattern::kHotspot,
        WorkloadPattern::kClusterLocal, WorkloadPattern::kPermutation}) {
    EXPECT_EQ(ParseWorkloadPattern(WorkloadPatternName(p)), p);
  }
  EXPECT_EQ(ParseWorkloadPattern("cluster-local"),
            WorkloadPattern::kClusterLocal);
  EXPECT_THROW(ParseWorkloadPattern("zipf"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Traffic generator under non-default workloads.

TEST(WorkloadTraffic, HeterogeneousRatesThinTheSuperposition) {
  const auto sys = MakeTinySystem(MessageFormat{16, 64});  // 4 x 8 nodes
  SimConfig cfg;
  cfg.lambda_g = 1e-3;
  cfg.seed = 29;
  cfg.workload.rate_scale = {4.0, 2.0, 1.0, 1.0};
  const std::int64_t count = 80000;
  const auto events = GenerateTraffic(sys, cfg, count);
  std::vector<int> per_cluster(4, 0);
  for (const auto& e : events) {
    ++per_cluster[static_cast<std::size_t>(sys.ClusterOfNode(e.src))];
  }
  // Source shares proportional to N_c s_c = 8 * {4, 2, 1, 1}.
  const double total_w = 8.0 * (4 + 2 + 1 + 1);
  for (int c = 0; c < 4; ++c) {
    const double expect = count * 8.0 * cfg.workload.rate_scale
        [static_cast<std::size_t>(c)] / total_w;
    EXPECT_NEAR(per_cluster[static_cast<std::size_t>(c)], expect,
                6 * std::sqrt(expect))
        << "cluster " << c;
  }
  // The superposed rate covers all clusters: mean gap = 1 / (lambda_g total).
  const double expected_gap = 1.0 / (cfg.lambda_g * total_w);
  EXPECT_NEAR(events.back().time / static_cast<double>(count), expected_gap,
              0.05 * expected_gap);
}

TEST(WorkloadTraffic, BimodalLengthsAreSampledPerMessage) {
  const auto sys = MakeTinySystem(MessageFormat{16, 64});
  SimConfig cfg;
  cfg.lambda_g = 1e-3;
  cfg.seed = 31;
  cfg.workload.message_length = MessageLength::Bimodal(4, 32, 0.2);
  const auto events = GenerateTraffic(sys, cfg, 20000);
  int longs = 0;
  for (const auto& e : events) {
    ASSERT_TRUE(e.flits == 4 || e.flits == 32);
    longs += (e.flits == 32);
  }
  EXPECT_NEAR(longs / 20000.0, 0.2, 0.02);
}

// ---------------------------------------------------------------------------
// Model-vs-sim agreement for the workloads the model gained (mirrors the
// uniform light-load integration test).

struct AgreementCase {
  const char* name;
  Workload workload;
  double rate;
  double tolerance_pct;
};

class WorkloadAgreement : public ::testing::TestWithParam<AgreementCase> {};

TEST_P(WorkloadAgreement, ModelWithinToleranceOfSimulation) {
  const auto& c = GetParam();
  const auto sys = MakeTinySystem(MessageFormat{16, 64});
  LatencyModel model(sys, c.workload);
  CocSystemSim sim(sys);
  SimConfig cfg;
  cfg.lambda_g = c.rate;
  cfg.workload = c.workload;
  cfg.warmup_messages = 1000;
  cfg.measured_messages = 10000;
  cfg.drain_messages = 1000;
  const auto sr = sim.Run(cfg);
  const auto mr = model.Evaluate(c.rate);
  ASSERT_FALSE(mr.saturated) << "model saturated at the test rate";
  const double err =
      100.0 * std::fabs(mr.mean_latency - sr.latency.Mean()) /
      sr.latency.Mean();
  EXPECT_LT(err, c.tolerance_pct)
      << "analysis=" << mr.mean_latency << " sim=" << sr.latency.Mean();
}

Workload HeterogeneousRates() {
  Workload wl;
  wl.rate_scale = {2.0, 1.5, 1.0, 0.5};
  return wl;
}

Workload LocalHeterogeneous() {
  Workload wl = Workload::ClusterLocal(0.8);
  wl.rate_scale = {2.0, 1.0, 1.0, 0.5};
  return wl;
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, WorkloadAgreement,
    ::testing::Values(
        AgreementCase{"ClusterLocal80", Workload::ClusterLocal(0.8), 5e-4,
                      12},
        AgreementCase{"HeterogeneousRates", HeterogeneousRates(), 2e-4, 12},
        AgreementCase{"LocalTimesHeterogeneous", LocalHeterogeneous(), 4e-4,
                      12},
        AgreementCase{"Hotspot15", Workload::Hotspot(0.15, 0), 1e-4, 20},
        AgreementCase{"BimodalLengths",
                      Workload().WithMessageLength(
                          MessageLength::Bimodal(8, 32, 0.25)),
                      1e-4, 15},
        // Pins the tolerance under which the permutation pattern's
        // uniform-marginal approximation holds (the model routes Eq. 2
        // while the sim replays the actual fixed derangement; see
        // Workload::ModelApproximationNote). The fixed pairing removes the
        // destination mixing the M/G/1 equations assume, so the band is
        // the widest of the family.
        AgreementCase{"PermutationMarginal", Workload::Permutation(), 2e-4,
                      20}),
    [](const ::testing::TestParamInfo<AgreementCase>& info) {
      return info.param.name;
    });

TEST(WorkloadModel, OnlyPermutationCarriesAnApproximationNote) {
  EXPECT_EQ(Workload::Uniform().ModelApproximationNote(), nullptr);
  EXPECT_EQ(Workload::ClusterLocal(0.5).ModelApproximationNote(), nullptr);
  EXPECT_EQ(Workload::Hotspot(0.1).ModelApproximationNote(), nullptr);
  const char* note = Workload::Permutation().ModelApproximationNote();
  ASSERT_NE(note, nullptr);
  EXPECT_NE(std::string(note).find("uniform destination marginal"),
            std::string::npos);
}

TEST(WorkloadModel, HotspotPredictsEarlierSaturationThanUniform) {
  // The hot node's ejection link binds far below the uniform C/D point —
  // the failure mode the pre-workload model could not see at all.
  const auto sys = MakeSmallSystem(MessageFormat{16, 64});
  LatencyModel uniform(sys);
  LatencyModel hot(sys, Workload::Hotspot(0.3, 0));
  const double sat_uniform = uniform.SaturationRate(1e-1);
  const double sat_hot = hot.SaturationRate(1e-1);
  EXPECT_LT(sat_hot, sat_uniform);
  const auto report = hot.Bottleneck(sat_hot * 0.99);
  EXPECT_STREQ(report.binding, "hot-node ejection link");
}

TEST(WorkloadModel, RateScaleShiftsLoadBetweenClusters) {
  // Scaling one cluster up must raise its source utilization and the system
  // mean latency relative to the homogeneous baseline at the same dial.
  const auto sys = MakeTinySystem(MessageFormat{16, 64});
  Workload skewed;
  skewed.rate_scale = {3.0, 1.0, 1.0, 1.0};
  LatencyModel base(sys), hot(sys, skewed);
  const double rate = 5e-4;
  const auto rb = base.Evaluate(rate);
  const auto rh = hot.Evaluate(rate);
  EXPECT_GT(rh.mean_latency, rb.mean_latency);
  // The scaled cluster saturates first: its saturation dial is lower.
  EXPECT_LT(hot.SaturationRate(1e-1), base.SaturationRate(1e-1));
}

TEST(WorkloadModel, BimodalLengthsRaiseWaitingOverFixedSameMean) {
  // Equal mean, higher second moment => strictly more M/G/1 waiting.
  const auto sys = MakeTinySystem(MessageFormat{16, 64});
  LatencyModel fixed(sys);
  Workload bimodal;  // mean 0.5*4 + 0.5*28 = 16 = the fixed length
  bimodal.message_length = MessageLength::Bimodal(4, 28, 0.5);
  LatencyModel spread(sys, bimodal);
  const double rate = 8e-4;
  EXPECT_GT(spread.Evaluate(rate).mean_latency,
            fixed.Evaluate(rate).mean_latency);
}

// ---------------------------------------------------------------------------
// Config-file workload keys (the parser satellite).

constexpr const char* kBaseConfig = R"(
[system]
m = 4
icn2 = fast
message_flits = 16
flit_bytes = 64
%EXTRA%

[network fast]
bandwidth = 500
network_latency = 0.01
switch_latency = 0.02

[clusters]
count = 4
n = 1
icn1 = fast
ecn1 = fast
)";

std::string WithKeys(const std::string& extra) {
  std::string text = kBaseConfig;
  const auto pos = text.find("%EXTRA%");
  return text.replace(pos, 7, extra);
}

TEST(ConfigWorkload, ParsesAllWorkloadKeys) {
  const auto exp = ParseExperiment(WithKeys(
      "workload.pattern = hotspot\nworkload.hotspot_fraction = 0.2\n"
      "workload.hotspot_node = 3\nworkload.rate.0 = 2.5\n"
      "workload.rate.2 = 0.5\nworkload.msg_len = bimodal:4,32,0.1\n"));
  EXPECT_EQ(exp.workload.pattern, WorkloadPattern::kHotspot);
  EXPECT_DOUBLE_EQ(exp.workload.hotspot_fraction, 0.2);
  EXPECT_EQ(exp.workload.hotspot_node, 3);
  ASSERT_EQ(exp.workload.rate_scale.size(), 4u);
  EXPECT_DOUBLE_EQ(exp.workload.rate_scale[0], 2.5);
  EXPECT_DOUBLE_EQ(exp.workload.rate_scale[1], 1.0);
  EXPECT_DOUBLE_EQ(exp.workload.rate_scale[2], 0.5);
  EXPECT_EQ(exp.workload.message_length, MessageLength::Bimodal(4, 32, 0.1));
}

TEST(ConfigWorkload, DefaultIsUniform) {
  const auto exp = ParseExperiment(WithKeys(""));
  EXPECT_EQ(exp.workload, Workload::Uniform());
}

TEST(ConfigWorkload, LocalityKeyParses) {
  const auto exp = ParseExperiment(
      WithKeys("workload.pattern = local\nworkload.locality = 0.9\n"));
  EXPECT_EQ(exp.workload.pattern, WorkloadPattern::kClusterLocal);
  EXPECT_DOUBLE_EQ(exp.workload.locality_fraction, 0.9);
}

struct BadKeyCase {
  const char* name;
  const char* keys;
  const char* expect;  // substring of the error
};

class ConfigWorkloadErrors : public ::testing::TestWithParam<BadKeyCase> {};

TEST_P(ConfigWorkloadErrors, RejectedWithDiagnostic) {
  try {
    ParseExperiment(WithKeys(GetParam().keys));
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(GetParam().expect),
              std::string::npos)
        << "actual: " << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConfigWorkloadErrors,
    ::testing::Values(
        BadKeyCase{"TypoPattern", "workload.patern = hotspot\n",
                   "did you mean 'workload.pattern'"},
        BadKeyCase{"TypoLocality", "workload.locallity = 0.5\n",
                   "did you mean 'workload.locality'"},
        BadKeyCase{"TypoRate", "workload.rates.0 = 2\n",
                   "did you mean 'workload.rate.<cluster>'"},
        BadKeyCase{"RateIndexOutOfRange", "workload.rate.9 = 2\n",
                   "out of range"},
        BadKeyCase{"RateIndexNotANumber", "workload.rate.first = 2\n",
                   "did you mean"},
        BadKeyCase{"BadPatternName", "workload.pattern = zipf\n",
                   "unknown workload pattern"},
        BadKeyCase{"BadMsgLen", "workload.msg_len = gaussian\n",
                   "message length spec"},
        BadKeyCase{"HotspotNodeOutOfRange",
                   "workload.pattern = hotspot\nworkload.hotspot_node = "
                   "999\n",
                   "outside [0, 16)"},
        // System-dependent validation failures must carry the config
        // location (the [system] section's line), not surface bare from
        // Workload::Validate deep inside the model.
        BadKeyCase{"HotspotNodeOutOfRangeNamesTheConfigLine",
                   "workload.pattern = hotspot\nworkload.hotspot_node = "
                   "999\n",
                   "config line"}),
    [](const ::testing::TestParamInfo<BadKeyCase>& info) {
      return info.param.name;
    });

TEST(ConfigWorkload, CliFlagsOverrideFileWorkload) {
  // End-to-end through the CLI: the model command accepts the workload flags
  // and produces different output when the workload changes.
  // (The CLI layer is exercised in cli_test.cc; here we pin the parser's
  // Experiment round trip instead.)
  const auto exp = ParseExperiment(WithKeys("workload.pattern = local\n"));
  LatencyModel model(exp.system, exp.workload);
  EXPECT_EQ(model.workload().pattern, WorkloadPattern::kClusterLocal);
}

}  // namespace
}  // namespace coc
