// CompiledModel equivalence guard: the compiled structure/evaluation split
// must reproduce LatencyModel bit for bit — EXPECT_EQ on doubles (exact bit
// patterns, reported in hexfloat on failure), no tolerance — across every
// topology family (m-port n-tree, crossbar, mesh via the mixed preset,
// dragonfly) and every workload pattern (uniform, cluster-local, hot-spot,
// permutation, heterogeneous rate scales, bimodal message lengths), plus
// the non-default model-option branches. Also pins the bracket-expansion
// fix for upper bounds below the true saturation point.
#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "model/compiled_model.h"
#include "oracle/latency_model.h"
#include "system/presets.h"
#include "workload/workload.h"

namespace coc {
namespace {

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

#define EXPECT_BIT_EQ(a, b)                                              \
  EXPECT_EQ(a, b) << #a " = " << Hex(a) << "  " #b " = " << Hex(b)

void ExpectSameResult(const ModelResult& ref, const ModelResult& got,
                      const std::string& trace) {
  SCOPED_TRACE(trace);
  ASSERT_EQ(ref.clusters.size(), got.clusters.size());
  EXPECT_EQ(ref.saturated, got.saturated);
  EXPECT_BIT_EQ(ref.mean_latency, got.mean_latency);
  for (std::size_t i = 0; i < ref.clusters.size(); ++i) {
    SCOPED_TRACE("cluster " + std::to_string(i));
    const ClusterLatency& r = ref.clusters[i];
    const ClusterLatency& g = got.clusters[i];
    EXPECT_BIT_EQ(r.u, g.u);
    EXPECT_BIT_EQ(r.blended, g.blended);
    EXPECT_BIT_EQ(r.intra.t_in, g.intra.t_in);
    EXPECT_BIT_EQ(r.intra.w_in, g.intra.w_in);
    EXPECT_BIT_EQ(r.intra.e_in, g.intra.e_in);
    EXPECT_BIT_EQ(r.intra.l_in, g.intra.l_in);
    EXPECT_BIT_EQ(r.intra.eta, g.intra.eta);
    EXPECT_BIT_EQ(r.intra.source_rho, g.intra.source_rho);
    EXPECT_EQ(r.intra.saturated, g.intra.saturated);
    EXPECT_BIT_EQ(r.inter.l_ex, g.inter.l_ex);
    EXPECT_BIT_EQ(r.inter.w_d, g.inter.w_d);
    EXPECT_BIT_EQ(r.inter.l_out, g.inter.l_out);
    EXPECT_BIT_EQ(r.inter.max_condis_rho, g.inter.max_condis_rho);
    EXPECT_BIT_EQ(r.inter.max_source_rho, g.inter.max_source_rho);
    EXPECT_EQ(r.inter.saturated, g.inter.saturated);
  }
}

/// Seeded multiplicative grid spanning well below saturation to well above
/// it (the last points are saturated for every system below).
std::vector<double> RateGrid(double lo, double hi, int count) {
  std::vector<double> rates;
  for (int i = 0; i < count; ++i) {
    const double f = static_cast<double>(i) / (count - 1);
    rates.push_back(lo * std::pow(hi / lo, f));
  }
  return rates;
}

struct Combo {
  const char* system;
  const char* workload;
};

SystemConfig MakeNamedSystem(const std::string& name) {
  const MessageFormat msg{16, 64};
  if (name == "1120") return MakeSystem1120(MessageFormat{32, 256});
  if (name == "544") return MakeSystem544(MessageFormat{32, 256});
  if (name == "small") return MakeSmallSystem(msg);
  if (name == "tiny") return MakeTinySystem(msg);
  if (name == "mixed") return MakeMixedTopologySystem(msg);
  return MakeDragonflySystem(msg);
}

Workload MakeNamedWorkload(const std::string& name, const SystemConfig& sys) {
  if (name == "uniform") return Workload::Uniform();
  if (name == "local") return Workload::ClusterLocal(0.7);
  if (name == "hotspot") {
    return Workload::Hotspot(0.2, sys.TotalNodes() / 2);
  }
  if (name == "permutation") return Workload::Permutation();
  if (name == "scaled") {
    std::vector<double> scales;
    for (int i = 0; i < sys.num_clusters(); ++i) {
      scales.push_back(0.5 + 0.25 * (i % 3));
    }
    return Workload::Uniform().WithRateScale(std::move(scales));
  }
  // "bimodal": two-point message lengths on a hot-spot pattern, stacking
  // the non-trivial flit variance on the skewed aggregation path.
  return Workload::Hotspot(0.15, 1).WithMessageLength(
      MessageLength::Bimodal(4, 64, 0.25));
}

class CompiledEquivalence
    : public ::testing::TestWithParam<Combo> {};

TEST_P(CompiledEquivalence, EvaluateManyBitIdenticalToPointwiseReference) {
  const auto [system_name, workload_name] = GetParam();
  const SystemConfig sys = MakeNamedSystem(system_name);
  const Workload workload = MakeNamedWorkload(workload_name, sys);
  const LatencyModel reference(sys, workload);
  const CompiledModel compiled(sys, workload);

  const std::vector<double> rates = RateGrid(1e-6, 1.0, 13);
  const std::vector<ModelResult> batch = compiled.EvaluateMany(rates);
  ASSERT_EQ(batch.size(), rates.size());
  bool saw_saturated = false;
  bool saw_finite = false;
  for (std::size_t k = 0; k < rates.size(); ++k) {
    const ModelResult ref = reference.Evaluate(rates[k]);
    ExpectSameResult(ref, batch[k], "lambda_g = " + Hex(rates[k]));
    // The one-shot Evaluate must agree with the batch path too.
    ExpectSameResult(ref, compiled.Evaluate(rates[k]),
                     "pointwise lambda_g = " + Hex(rates[k]));
    saw_saturated = saw_saturated || ref.saturated;
    saw_finite = saw_finite || !ref.saturated;
  }
  // The grid must actually exercise both regimes or the test is vacuous.
  EXPECT_TRUE(saw_finite);
  EXPECT_TRUE(saw_saturated);
}

TEST_P(CompiledEquivalence, BottleneckAndSaturationBitIdentical) {
  const auto [system_name, workload_name] = GetParam();
  const SystemConfig sys = MakeNamedSystem(system_name);
  const Workload workload = MakeNamedWorkload(workload_name, sys);
  const LatencyModel reference(sys, workload);
  const CompiledModel compiled(sys, workload);

  for (double rate : {1e-5, 1e-3}) {
    SCOPED_TRACE("lambda_g = " + Hex(rate));
    const BottleneckReport ref = reference.Bottleneck(rate);
    const BottleneckReport got = compiled.Bottleneck(rate);
    EXPECT_BIT_EQ(ref.condis_rho, got.condis_rho);
    EXPECT_BIT_EQ(ref.inter_source_rho, got.inter_source_rho);
    EXPECT_BIT_EQ(ref.intra_source_rho, got.intra_source_rho);
    EXPECT_BIT_EQ(ref.hot_eject_rho, got.hot_eject_rho);
    EXPECT_STREQ(ref.binding, got.binding);
  }
  EXPECT_BIT_EQ(reference.SaturationRate(1e-1), compiled.SaturationRate(1e-1));
  EXPECT_BIT_EQ(reference.SaturationRate(1.0), compiled.SaturationRate(1.0));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CompiledEquivalence,
    ::testing::Values(Combo{"1120", "uniform"}, Combo{"1120", "local"},
                      Combo{"1120", "hotspot"}, Combo{"1120", "scaled"},
                      Combo{"544", "permutation"}, Combo{"544", "bimodal"},
                      Combo{"small", "uniform"}, Combo{"small", "hotspot"},
                      Combo{"tiny", "local"}, Combo{"tiny", "bimodal"},
                      Combo{"mixed", "uniform"}, Combo{"mixed", "local"},
                      Combo{"mixed", "hotspot"}, Combo{"mixed", "scaled"},
                      Combo{"dragonfly", "uniform"},
                      Combo{"dragonfly", "hotspot"},
                      Combo{"dragonfly", "permutation"},
                      Combo{"dragonfly", "bimodal"}),
    [](const ::testing::TestParamInfo<Combo>& info) {
      return std::string(info.param.system) + "_" + info.param.workload;
    });

TEST(CompiledEquivalence, NonDefaultModelOptionBranches) {
  // Flip every ModelOptions switch away from its default at once; any
  // compiled constant tied to the wrong branch shows up as a mismatch.
  ModelOptions opts;
  opts.lambda_i2 = ModelOptions::LambdaI2::kHarmonic;
  opts.ecn_eta = ModelOptions::EcnEta::kSourceSideOnly;
  opts.condis_service = ModelOptions::CondisService::kSupplyLimited;
  opts.relaxing_factor = ModelOptions::RelaxingFactor::kAsPrinted;
  opts.source_queue_rate = ModelOptions::SourceQueueRate::kNetworkTotal;
  opts.include_last_stage_wait = false;

  for (const char* system_name : {"1120", "mixed", "dragonfly"}) {
    const SystemConfig sys = MakeNamedSystem(system_name);
    const LatencyModel reference(sys, Workload::ClusterLocal(0.6), opts);
    const CompiledModel compiled(sys, Workload::ClusterLocal(0.6), opts);
    for (double rate : RateGrid(1e-6, 1e-2, 6)) {
      ExpectSameResult(reference.Evaluate(rate), compiled.Evaluate(rate),
                       std::string(system_name) + " lambda_g = " + Hex(rate));
    }
  }
}

TEST(SaturationSearch, ExpandsBracketWhenFiniteAtUpperBound) {
  // Regression for the seed behavior of silently returning upper_bound when
  // the model was still finite there. An upper bound far below the true
  // saturation point must now expand and land on the same rate (within the
  // relative tolerance) that a generous bound finds.
  const SystemConfig sys = MakeSmallSystem(MessageFormat{16, 64});
  const LatencyModel reference(sys);
  const CompiledModel compiled(sys);

  const double generous = reference.SaturationRate(1e-1);
  ASSERT_TRUE(std::isfinite(generous));
  const double tight_ref = reference.SaturationRate(generous / 64.0);
  const double tight_compiled = compiled.SaturationRate(generous / 64.0);
  EXPECT_GT(tight_ref, generous / 64.0);  // the seed would have returned ub
  EXPECT_NEAR(tight_ref, generous, 2e-3 * generous);
  EXPECT_BIT_EQ(tight_ref, tight_compiled);

  // A model whose queues carry no load at any rate never saturates: the
  // search must report +infinity instead of the caller's upper bound.
  int probes = 0;
  const double never = SaturationSearch(
      [&](double) {
        ++probes;
        return SaturationProbe{false, 0.0};
      },
      1e-1, 1e-3);
  EXPECT_TRUE(std::isinf(never));
  EXPECT_GT(probes, 0);
}

// --- incremental workload rebinding ----------------------------------------

/// Rebinding from any base workload must land on the same model a cold
/// compile of the target produces: bit-identical evaluation across the full
/// rate grid (finite and saturated regimes) and bit-identical saturation.
TEST_P(CompiledEquivalence, RebindBitIdenticalToColdCompile) {
  const auto [system_name, workload_name] = GetParam();
  const SystemConfig sys = MakeNamedSystem(system_name);
  const Workload target = MakeNamedWorkload(workload_name, sys);
  const std::vector<double> rates = RateGrid(1e-6, 1.0, 9);

  for (const char* base_name : {"uniform", "local", "hotspot", "scaled"}) {
    SCOPED_TRACE(std::string("base = ") + base_name);
    const Workload base = MakeNamedWorkload(base_name, sys);
    const CompiledModel source(sys, base);
    const CompiledModel rebound = source.Rebind(target);
    const CompiledModel cold(sys, target);
    const std::vector<ModelResult> want = cold.EvaluateMany(rates);
    const std::vector<ModelResult> got = rebound.EvaluateMany(rates);
    for (std::size_t k = 0; k < rates.size(); ++k) {
      ExpectSameResult(want[k], got[k], "lambda_g = " + Hex(rates[k]));
    }
    EXPECT_BIT_EQ(cold.SaturationRate(1.0), rebound.SaturationRate(1.0));
  }
}

TEST(CompiledModelRebind, SingleDialMovesReuseUntouchedClasses) {
  // A rate_scale bump on one cluster leaves every other cluster's intra
  // class and every pair class not incident to it unchanged; the rebind
  // must copy those instead of rebuilding.
  const SystemConfig sys = MakeSystem1120(MessageFormat{32, 256});
  const CompiledModel base(sys);
  std::vector<double> scales(static_cast<std::size_t>(sys.num_clusters()),
                             1.0);
  scales[0] = 1.5;
  const CompiledModel bumped =
      base.Rebind(Workload::Uniform().WithRateScale(std::move(scales)));
  const auto& stats = bumped.rebind_stats();
  EXPECT_GT(stats.intra_reused, 0);
  EXPECT_GT(stats.pair_reused, 0);
  // The bumped cluster's own classes did change.
  EXPECT_GT(stats.intra_rebuilt, 0);
  EXPECT_GT(stats.pair_rebuilt, 0);
  // Rebuilt pair classes share their (r, v, d_l) combo tables with the
  // source model — the dominant compile cost never repeats.
  EXPECT_EQ(stats.combos_shared, stats.pair_rebuilt);

  // A locality move changes every cluster's U, so classes rebuild — but the
  // workload-invariant combo tables still transfer outright.
  const CompiledModel local = base.Rebind(Workload::ClusterLocal(0.6));
  EXPECT_EQ(local.rebind_stats().intra_reused, 0);
  EXPECT_EQ(local.rebind_stats().combos_shared,
            local.rebind_stats().pair_rebuilt);

  // A message-length move invalidates per-class constants (every x_* scales
  // with the moments) but not the combo tables.
  const CompiledModel bimodal = base.Rebind(Workload::Uniform().WithMessageLength(
      MessageLength::Bimodal(8, 64, 0.5)));
  EXPECT_EQ(bimodal.rebind_stats().intra_reused, 0);
  EXPECT_EQ(bimodal.rebind_stats().pair_reused, 0);
  EXPECT_EQ(bimodal.rebind_stats().combos_shared,
            bimodal.rebind_stats().pair_rebuilt);
}

TEST(CompiledModelRebind, BurstinessMovesReuseTheFullStructure) {
  // The arrival SCV enters only the per-rate G/G/1 evaluations (mg1.h
  // GG1Wait), never the per-class constant tuples, so an arrival-process
  // move is the cheapest rebind there is: every intra and pair class
  // carries over untouched — and the result still matches a cold compile
  // bit for bit.
  const SystemConfig sys = MakeSystem1120(MessageFormat{32, 256});
  const CompiledModel base(sys);
  Workload bursty;
  bursty.arrival = ArrivalProcess::Mmpp(4.0, 8.0);
  const CompiledModel rebound = base.Rebind(bursty);
  const auto& stats = rebound.rebind_stats();
  EXPECT_EQ(stats.intra_rebuilt, 0);
  EXPECT_EQ(stats.pair_rebuilt, 0);
  EXPECT_GT(stats.intra_reused, 0);
  EXPECT_GT(stats.pair_reused, 0);

  const CompiledModel cold(sys, bursty);
  for (const double rate : RateGrid(1e-6, 1e-3, 5)) {
    ExpectSameResult(cold.Evaluate(rate), rebound.Evaluate(rate),
                     "lambda_g = " + Hex(rate));
  }
  EXPECT_BIT_EQ(cold.SaturationRate(1.0), rebound.SaturationRate(1.0));
}

/// Property test: a random walk over the workload dials, rebind-chained N
/// deep, stays bit-identical to a cold compile at every step — reuse noise
/// cannot accumulate across generations of rebinding.
TEST(CompiledModelRebind, ChainedDialMovesStayBitIdentical) {
  for (const char* system_name : {"small", "mixed", "dragonfly"}) {
    SCOPED_TRACE(system_name);
    const SystemConfig sys = MakeNamedSystem(system_name);
    const std::vector<double> rates = RateGrid(1e-5, 0.5, 5);
    std::mt19937 rng(20260807);
    std::uniform_real_distribution<double> frac(0.0, 1.0);
    std::uniform_int_distribution<int> dial_pick(0, 3);  // incl. burstiness
    std::uniform_int_distribution<int> cluster_pick(0,
                                                    sys.num_clusters() - 1);

    Workload workload;  // start from the paper's uniform default
    CompiledModel chained(sys, workload);
    for (int step = 0; step < 12; ++step) {
      const auto dial = static_cast<WorkloadDial>(dial_pick(rng));
      const double value =
          dial == WorkloadDial::kRateScale     ? 0.5 + frac(rng)
          : dial == WorkloadDial::kBurstiness  ? 1.0 + 7.0 * frac(rng)
                                               : 0.95 * frac(rng);
      workload = ApplyWorkloadDial(workload, dial, value, cluster_pick(rng),
                                   sys.num_clusters());
      chained = chained.Rebind(workload);
      const CompiledModel cold(sys, workload);
      const std::vector<ModelResult> want = cold.EvaluateMany(rates);
      const std::vector<ModelResult> got = chained.EvaluateMany(rates);
      for (std::size_t k = 0; k < rates.size(); ++k) {
        ExpectSameResult(want[k], got[k],
                         "step " + std::to_string(step) + " dial " +
                             WorkloadDialName(dial) + " lambda_g = " +
                             Hex(rates[k]));
      }
    }
  }
}

TEST(CompiledModel, DedupesHeterogeneousTable1Organization) {
  // MakeSystem1120 has three cluster classes; the compiled model must not
  // scale per-rate work with the 992 ordered pairs. Indirectly observable:
  // a batch over a big grid is cheap, and identical clusters land on
  // identical (not merely close) decompositions.
  const SystemConfig sys = MakeSystem1120(MessageFormat{32, 256});
  const CompiledModel compiled(sys);
  const ModelResult r = compiled.Evaluate(2e-4);
  ASSERT_EQ(r.clusters.size(), 32u);
  for (int i = 1; i < 12; ++i) {  // clusters 0..11 share n = 1
    EXPECT_BIT_EQ(r.clusters[0].blended,
                  r.clusters[static_cast<std::size_t>(i)].blended);
  }
  for (int i = 13; i < 28; ++i) {  // clusters 12..27 share n = 2
    EXPECT_BIT_EQ(r.clusters[12].blended,
                  r.clusters[static_cast<std::size_t>(i)].blended);
  }
}

}  // namespace
}  // namespace coc
