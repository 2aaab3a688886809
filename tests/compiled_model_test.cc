// CompiledModel equivalence guard: the compiled structure/evaluation split
// must reproduce LatencyModel bit for bit — EXPECT_EQ on doubles (exact bit
// patterns, reported in hexfloat on failure), no tolerance — across every
// topology family (m-port n-tree, crossbar, mesh via the mixed preset,
// dragonfly) and every workload pattern (uniform, cluster-local, hot-spot,
// permutation, heterogeneous rate scales, bimodal message lengths), plus
// the non-default model-option branches. Config-built rows cover runs of
// equal clusters: two long runs, kinds interleaved so every run is one
// cluster, the hot node in the middle, first and last cluster of a run, and
// a rate scale on one cluster inside a run. Also pins the bracket-expansion
// fix for upper bounds below the true saturation point, that the search's
// saturated-side certificate (SaturatedFrom) changes no bit on seeded
// draws, and the deadline checks inside compile and evaluation.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "config/config_parser.h"
#include "gtest/gtest.h"
#include "model/compiled_model.h"
#include "oracle/latency_model.h"
#include "system/presets.h"
#include "topology/topology_spec.h"
#include "workload/arrival_process.h"
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

/// A config of clusters of two kinds, built through the config parser:
/// kind a is an 8-node tree with ICN1 net1 and ECN1 net2, kind b a 32-node
/// tree with the networks swapped. `runs` gives each run's length, the
/// kinds alternating a, b, a, ...
SystemConfig TwoKindSystem(const std::vector<int>& runs) {
  std::string text =
      "[system]\nm = 8\nicn2 = net1\nmessage_flits = 16\nflit_bytes = 64\n"
      "[network net1]\nbandwidth = 500\nnetwork_latency = 0.01\n"
      "switch_latency = 0.02\n"
      "[network net2]\nbandwidth = 250\nnetwork_latency = 0.05\n"
      "switch_latency = 0.01\n";
  for (std::size_t r = 0; r < runs.size(); ++r) {
    text += "[clusters]\ncount = " + std::to_string(runs[r]) +
            (r % 2 == 0 ? "\nn = 1\nicn1 = net1\necn1 = net2\n"
                        : "\nn = 2\nicn1 = net2\necn1 = net1\n");
  }
  return ParseSystemConfig(text);
}

SystemConfig MakeNamedSystem(const std::string& name) {
  if (name == "runs64") return TwoKindSystem({32, 32});
  if (name == "interleaved") return TwoKindSystem({1, 1, 1, 1, 1, 1, 1, 1});
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
  // On runs64 the middle node lies inside the second run; these put the hot
  // node in the first cluster of that run and in the last of the first.
  const int half = sys.num_clusters() / 2;
  if (name == "hot_first") return Workload::Hotspot(0.2, sys.ClusterBase(half));
  if (name == "hot_last") {
    return Workload::Hotspot(0.2, sys.ClusterBase(half - 1) + 3);
  }
  if (name == "rate_in_run") {  // one cluster inside runs64's first run
    std::vector<double> scales(static_cast<std::size_t>(sys.num_clusters()),
                               1.0);
    scales[10] = 2.5;
    return Workload::Uniform().WithRateScale(std::move(scales));
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
                      Combo{"dragonfly", "bimodal"},
                      Combo{"runs64", "uniform"}, Combo{"runs64", "local"},
                      Combo{"runs64", "permutation"},
                      Combo{"runs64", "hotspot"}, Combo{"runs64", "hot_first"},
                      Combo{"runs64", "hot_last"},
                      Combo{"runs64", "rate_in_run"},
                      Combo{"interleaved", "uniform"},
                      Combo{"interleaved", "local"},
                      Combo{"interleaved", "hotspot"}),
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

// --- the saturated-side certificate ----------------------------------------

/// The plain search, rebuilt from public calls: Evaluate's verdict at each
/// probed midpoint, with the max of Bottleneck's four rhos (the verdict and
/// the max SaturationRate's probe folds) for the finite-side certificate,
/// and no saturated-side certificate.
double PlainSaturationRate(const CompiledModel& model, double upper_bound) {
  return SaturationSearch(
      [&](double x) {
        const BottleneckReport b = model.Bottleneck(x);
        return SaturationProbe{
            model.Evaluate(x).saturated,
            std::max({b.hot_eject_rho, b.condis_rho, b.inter_source_rho,
                      b.intra_source_rho})};
      },
      upper_bound, 1e-3);
}

/// SaturatedFrom() rebuilt from public calls: a full-range bisection over
/// the bit patterns of [0, DBL_MAX] of "Bottleneck(x) has a linear queue,
/// the C/D or the hot-node ejection link, at rho >= 1"; +infinity when
/// DBL_MAX is not such a rate.
double PlainSaturatedFrom(const CompiledModel& model) {
  const auto saturated = [&](std::uint64_t bits) {
    const BottleneckReport b = model.Bottleneck(std::bit_cast<double>(bits));
    return b.condis_rho >= 1.0 || b.hot_eject_rho >= 1.0;
  };
  std::uint64_t lo = 0;
  std::uint64_t hi =
      std::bit_cast<std::uint64_t>(std::numeric_limits<double>::max());
  if (!saturated(hi)) return std::numeric_limits<double>::infinity();
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    (saturated(mid) ? hi : lo) = mid;
  }
  return std::bit_cast<double>(hi);
}

/// One seeded workload: uniform, cluster-local (both ends of [0, 1]
/// included), hot-spot (fraction up to 1, the hot node in the first, a
/// middle or the last cluster) or permutation, optionally with a zero rate
/// scale on one cluster, bimodal lengths and an MMPP arrival process.
Workload DrawWorkload(std::mt19937& rng, const SystemConfig& sys,
                      std::string& trace) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const int c = sys.num_clusters();
  Workload w;
  switch (rng() % 4) {
    case 0:
      trace += " uniform";
      break;
    case 1: {
      const double pick[] = {0.0, 1.0, unit(rng)};
      const double locality = pick[rng() % 3];
      w = Workload::ClusterLocal(locality);
      trace += " local " + Hex(locality);
      break;
    }
    case 2: {
      const double pick[] = {unit(rng), 0.999, std::nextafter(1.0, 0.0)};
      const double f = pick[rng() % 3];
      const int where[] = {0, c / 2, c - 1};
      const int h = where[rng() % 3];
      const std::int64_t node =
          sys.ClusterBase(h) +
          static_cast<std::int64_t>(rng() % static_cast<unsigned>(
                                                sys.NodesInCluster(h)));
      w = Workload::Hotspot(f, node);
      trace += " hotspot " + Hex(f) + " node " + std::to_string(node);
      break;
    }
    default:
      w = Workload::Permutation();
      trace += " permutation";
  }
  if (c > 1 && rng() % 3 == 0) {
    std::vector<double> scales;
    for (int i = 0; i < c; ++i) scales.push_back(0.5 + unit(rng));
    const int zero = static_cast<int>(rng() % static_cast<unsigned>(c));
    scales[static_cast<std::size_t>(zero)] = 0.0;
    w.WithRateScale(std::move(scales));
    trace += " scale 0 at " + std::to_string(zero);
  }
  if (rng() % 3 == 0) {
    w.WithMessageLength(MessageLength::Bimodal(4, 64, 0.05 + 0.9 * unit(rng)));
    trace += " bimodal";
  }
  if (rng() % 3 == 0) {
    const double ratio = 1.0 + 7.0 * unit(rng);
    w.WithArrival(ArrivalProcess::Mmpp(ratio, 1.0 + 31.0 * unit(rng)));
    trace += " " + w.arrival.ToString();
  }
  return w;
}

ModelOptions DrawOptions(std::mt19937& rng) {
  ModelOptions o;
  o.lambda_i2 = rng() % 2 ? ModelOptions::LambdaI2::kHarmonic
                          : ModelOptions::LambdaI2::kPairMean;
  o.ecn_eta = rng() % 2 ? ModelOptions::EcnEta::kSourceSideOnly
                        : ModelOptions::EcnEta::kPerSide;
  o.condis_service = rng() % 2 ? ModelOptions::CondisService::kSupplyLimited
                               : ModelOptions::CondisService::kIcn2Rate;
  const ModelOptions::RelaxingFactor relax[] = {
      ModelOptions::RelaxingFactor::kInverseCapacity,
      ModelOptions::RelaxingFactor::kAsPrinted,
      ModelOptions::RelaxingFactor::kOff};
  o.relaxing_factor = relax[rng() % 3];
  o.source_queue_rate = rng() % 2
                            ? ModelOptions::SourceQueueRate::kNetworkTotal
                            : ModelOptions::SourceQueueRate::kPerNode;
  o.include_last_stage_wait = rng() % 2 == 0;
  return o;
}

TEST(SaturationSearch, SaturatedSideCertificateChangesNoBit) {
  // SaturationRate classifies every midpoint at or above SaturatedFrom()
  // without evaluating it and seeds the finite side with one probe there.
  // Over seeded draws of system, ICN2 override, model options and workload
  // it must (a) return the plain search's bits from both upper bounds, (b)
  // SaturatedFrom() must really be saturated, as must every rate above, and
  // (c) SaturatedFrom(), which searches each linear queue near its own
  // estimate, must be the double a full-range bisection over Bottleneck()
  // finds (an uncounted C/D queue carries no load, so the two agree).
  std::vector<std::pair<std::string, SystemConfig>> systems;
  for (const char* name : {"1120", "544", "small", "tiny", "mixed",
                           "dragonfly"}) {
    systems.emplace_back(name, MakeNamedSystem(name));
  }
  for (std::size_t base = 0; base < 2; ++base) {
    for (const char* icn2 : {"crossbar", "tree:3", "mesh:4x8", "torus:4x8"}) {
      systems.emplace_back(
          systems[base].first + " icn2 " + icn2,
          systems[base].second.WithIcn2Topology(ParseTopologySpec(icn2)));
    }
  }
  std::mt19937 rng(20261018);
  int searches = 0;
  int one_probe = 0;
  int certified = 0;
  constexpr int kDraws = 96;
  for (int draw = 0; draw < kDraws; ++draw) {
    const auto& [name, sys] = systems[rng() % systems.size()];
    std::string trace = "draw " + std::to_string(draw) + ": " + name;
    const Workload workload = DrawWorkload(rng, sys, trace);
    const ModelOptions opts = DrawOptions(rng);
    SCOPED_TRACE(trace);
    const CompiledModel model(sys, workload, opts);
    for (const double upper : {1.0, 1e-1}) {
      int probes = 0;
      EXPECT_BIT_EQ(model.SaturationRate(upper, 1e-3, nullptr, &probes),
                    PlainSaturationRate(model, upper));
      ++searches;
      one_probe += probes == 1 ? 1 : 0;
    }
    const double from = model.SaturatedFrom();
    EXPECT_BIT_EQ(from, PlainSaturatedFrom(model));
    if (!std::isfinite(from)) continue;
    ++certified;
    for (const double scale : {1.0, 1.0 + 1e-12, 2.0, 1e3}) {
      EXPECT_TRUE(model.Evaluate(from * scale).saturated)
          << "SaturatedFrom() = " << Hex(from) << " x " << scale;
    }
  }
  // Not vacuous: most draws have a linear queue to certify with, and most
  // searches then evaluate the model once.
  EXPECT_GT(certified, kDraws * 3 / 4);
  EXPECT_GT(one_probe, searches / 2);
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

TEST(CompiledModel, DeadlineTripsInsideCompileAndEvaluation) {
  // Interleaved kinds make every run one cluster, so an evaluation is C^2
  // and only its per-run checks bound it. The compile checks once per class
  // (2 intra classes, 4 pair classes), the evaluation once per run (8).
  const SystemConfig sys = MakeNamedSystem("interleaved");
  int compile_trips = 0;
  int evaluate_trips = 0;
  for (int k = 0; k < 20; ++k) {
    SCOPED_TRACE("checks allowed: " + std::to_string(k));
    const Deadline deadline = Deadline::TripAfterChecks(k);
    std::optional<CompiledModel> model;
    try {
      model.emplace(sys, Workload::Uniform(), ModelOptions{}, &deadline);
    } catch (const DeadlineExceeded& e) {
      EXPECT_NE(std::string(e.what()).find("during model compilation ("),
                std::string::npos)
          << e.what();
      EXPECT_EQ(evaluate_trips, 0);
      ++compile_trips;
      continue;
    }
    try {
      ExpectSameResult(CompiledModel(sys).Evaluate(1e-4),
                       model->Evaluate(1e-4, &deadline), "untripped");
    } catch (const DeadlineExceeded& e) {
      EXPECT_NE(std::string(e.what()).find("during model evaluation ("),
                std::string::npos)
          << e.what();
      ++evaluate_trips;
    }
  }
  EXPECT_EQ(compile_trips, 6);
  EXPECT_EQ(evaluate_trips, 8);

  // Under hot-spot the compile also checks once per run of its load sums,
  // before any class is built.
  const Deadline first = Deadline::TripAfterChecks(0);
  try {
    CompiledModel(sys, MakeNamedWorkload("hotspot", sys), ModelOptions{},
                  &first);
    ADD_FAILURE() << "expected DeadlineExceeded";
  } catch (const DeadlineExceeded& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "during model compilation (0 hot-spot sums)"),
              std::string::npos)
        << e.what();
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
