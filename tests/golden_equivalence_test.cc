// Golden-equivalence guard for the pluggable-Topology refactor.
//
// The values below are a verbatim snapshot (hexfloat, i.e. exact doubles) of
// the pre-refactor seed implementation: the Eq. (6) hop distributions and
// the LatencyModel::Evaluate curves / SaturationRate for both Table 1
// organizations at both paper message formats. The refactored
// MPortNTree-via-Topology path must reproduce every one of them bit for bit
// — EXPECT_EQ on doubles, no tolerance. Any change to the topology layer,
// the link-distribution plumbing, or the model's summation order that
// perturbs a single ULP fails here.
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "oracle/hop_distribution.h"
#include "oracle/latency_model.h"
#include "system/presets.h"
#include "topology/m_port_n_tree.h"

namespace coc {
namespace {

struct HopGolden {
  int m;
  int n;
  std::vector<double> p;    // P(h), h = 1..n  (seed HopDistribution)
  double mean_round_trip;   // seed MeanLinksRoundTrip()
  double mean_one_way;      // seed MeanLinksOneWay()
};

const HopGolden kHopGolden[] = {
    {8, 1, {0x1p+0}, 0x1p+1, 0x1p+0},
    {8, 2, {0x1.8c6318c6318c6p-4, 0x1.ce739ce739ce7p-1},
     0x1.e739ce739ce73p+1, 0x1.e739ce739ce73p+0},
    {8, 3, {0x1.83060c183060cp-6, 0x1.83060c183060cp-4, 0x1.c3870e1c3870ep-1},
     0x1.6ddbb76eddbb7p+2, 0x1.6ddbb76eddbb7p+1},
    {4, 3, {0x1.1111111111111p-4, 0x1.1111111111111p-3, 0x1.999999999999ap-1},
     0x1.5dddddddddddfp+2, 0x1.5dddddddddddfp+1},
    {4, 4,
     {0x1.0842108421084p-5, 0x1.0842108421084p-4, 0x1.0842108421084p-3,
      0x1.8c6318c6318c6p-1},
     0x1.d294a5294a529p+2, 0x1.d294a5294a529p+1},
    {4, 5,
     {0x1.041041041041p-6, 0x1.041041041041p-5, 0x1.041041041041p-4,
      0x1.041041041041p-3, 0x1.8618618618618p-1},
     0x1.2596596596596p+3, 0x1.2596596596596p+2},
};

TEST(GoldenEquivalence, TopologyLinkDistributionsMatchSeedHopDistributions) {
  for (const auto& g : kHopGolden) {
    SCOPED_TRACE("m=" + std::to_string(g.m) + " n=" + std::to_string(g.n));
    const MPortNTree tree(g.m, g.n);
    const LinkDistribution& links = tree.Links();
    const LinkDistribution& access = tree.AccessLinks();
    // The seed HopDistribution class must also stay unchanged.
    const HopDistribution hops(g.m, g.n);
    for (int h = 1; h <= g.n; ++h) {
      const double expected = g.p[static_cast<std::size_t>(h - 1)];
      EXPECT_EQ(hops.P(h), expected) << "HopDistribution h=" << h;
      EXPECT_EQ(links.P(2 * h), expected) << "Links at 2h, h=" << h;
      EXPECT_EQ(access.P(h), expected) << "AccessLinks at h=" << h;
    }
    EXPECT_EQ(hops.MeanLinksRoundTrip(), g.mean_round_trip);
    EXPECT_EQ(hops.MeanLinksOneWay(), g.mean_one_way);
    EXPECT_EQ(links.MeanLinks(), g.mean_round_trip);
    EXPECT_EQ(access.MeanLinks(), g.mean_one_way);
    EXPECT_EQ(links.max_links(), 2 * g.n);
    EXPECT_EQ(access.max_links(), g.n);
  }
}

struct CurveGolden {
  const char* org;        // "1120" or "544"
  int m_flits;
  double flit_bytes;
  double lambda_g;
  double mean_latency;    // +inf when saturated
  int saturated;
};

const CurveGolden kCurveGolden[] = {
    // Organization 1 (N=1120), M=32, d_m=256.
    {"1120", 32, 0x1p+8, 0x1.a36e2eb1c432dp-15, 0x1.3c2aff769fed5p+5, 0},
    {"1120", 32, 0x1p+8, 0x1.a36e2eb1c432dp-14, 0x1.4a5e8b5bf441cp+5, 0},
    {"1120", 32, 0x1p+8, 0x1.a36e2eb1c432dp-13, 0x1.6c379e2924483p+5, 0},
    {"1120", 32, 0x1p+8, 0x1.3a92a30553261p-12, 0x1.998260461e2a9p+5, 0},
    {"1120", 32, 0x1p+8, 0x1.a36e2eb1c432dp-12, 0x1.e03d555d18548p+5, 0},
    {"1120", 32, 0x1p+8, 0x1.d7dbf487fcb92p-12, 0x1.10dfec6c796a8p+6, 0},
    {"1120", 32, 0x1p+8, 0x1.3a92a30553261p-11, 0, 1},
    // Organization 1, M=64, d_m=512.
    {"1120", 64, 0x1p+9, 0x1.a36e2eb1c432dp-15, 0x1.51f22393e201cp+7, 0},
    {"1120", 64, 0x1p+9, 0x1.a36e2eb1c432dp-14, 0x1.c10ff26627b24p+7, 0},
    {"1120", 64, 0x1p+9, 0x1.a36e2eb1c432dp-13, 0, 1},
    // Organization 2 (N=544), M=32, d_m=256.
    {"544", 32, 0x1p+8, 0x1.a36e2eb1c432dp-14, 0x1.63b066ea3549cp+5, 0},
    {"544", 32, 0x1p+8, 0x1.a36e2eb1c432dp-13, 0x1.7bdd273233663p+5, 0},
    {"544", 32, 0x1p+8, 0x1.a36e2eb1c432dp-12, 0x1.b8af0bfaafba3p+5, 0},
    {"544", 32, 0x1p+8, 0x1.3a92a30553261p-11, 0x1.08f6414742a6dp+6, 0},
    {"544", 32, 0x1p+8, 0x1.a36e2eb1c432dp-11, 0x1.59a2aa3f21069p+6, 0},
    {"544", 32, 0x1p+8, 0x1.0624dd2f1a9fcp-10, 0x1.9d60f76098ed3p+7, 0},
    {"544", 32, 0x1p+8, 0x1.89374bc6a7efap-10, 0, 1},
    // Organization 2, M=64, d_m=512.
    {"544", 64, 0x1p+9, 0x1.a36e2eb1c432dp-14, 0x1.8c46431f68b62p+7, 0},
    {"544", 64, 0x1p+9, 0x1.a36e2eb1c432dp-13, 0x1.3cbce4303b751p+8, 0},
    {"544", 64, 0x1p+9, 0x1.a36e2eb1c432dp-12, 0, 1},
};

SystemConfig MakeOrg(const CurveGolden& g) {
  const MessageFormat msg{g.m_flits, g.flit_bytes};
  return g.org == std::string("1120") ? MakeSystem1120(msg)
                                      : MakeSystem544(msg);
}

TEST(GoldenEquivalence, EvaluateCurvesMatchSeedBitForBit) {
  const CurveGolden* prev = nullptr;
  std::optional<LatencyModel> model;
  for (const auto& g : kCurveGolden) {
    const bool fresh = prev == nullptr || prev->org != g.org ||
                       prev->m_flits != g.m_flits ||
                       prev->flit_bytes != g.flit_bytes;
    if (fresh) model.emplace(MakeOrg(g));
    prev = &g;
    SCOPED_TRACE(std::string(g.org) + " M=" + std::to_string(g.m_flits) +
                 " lambda=" + std::to_string(g.lambda_g));
    const auto r = model->Evaluate(g.lambda_g);
    EXPECT_EQ(r.saturated, g.saturated == 1);
    if (g.saturated) {
      EXPECT_TRUE(std::isinf(r.mean_latency));
    } else {
      EXPECT_EQ(r.mean_latency, g.mean_latency);
    }
  }
}

TEST(GoldenEquivalence, SaturationRatesMatchSeedBitForBit) {
  struct SatGolden {
    const char* org;
    int m_flits;
    double flit_bytes;
    double rate;
  };
  const SatGolden kSat[] = {
      {"1120", 32, 0x1p+8, 0x1.0f5c28f5c28f6p-11},
      {"1120", 64, 0x1p+9, 0x1.147ae147ae148p-13},
      {"544", 32, 0x1p+8, 0x1.1020c49ba5e36p-10},
      {"544", 64, 0x1p+9, 0x1.153f7ced91688p-12},
  };
  for (const auto& g : kSat) {
    SCOPED_TRACE(std::string(g.org) + " M=" + std::to_string(g.m_flits));
    const MessageFormat msg{g.m_flits, g.flit_bytes};
    const LatencyModel model(g.org == std::string("1120") ? MakeSystem1120(msg)
                                                          : MakeSystem544(msg));
    EXPECT_EQ(model.SaturationRate(2e-3), g.rate);
  }
}

}  // namespace
}  // namespace coc
