// Tests for the pluggable Topology layer: the FullCrossbar and KAryMesh
// implementations (structure, dimension-ordered routing, exact journey
// statistics), every family's channel decoding against the stored-table
// oracle, the TopologySpec parser/factory and its size bounds, topology
// resolution and sharing inside SystemConfig, and the acceptance path — a
// system mixing topology families evaluated end to end through both the
// analytical model and the discrete-event simulator.
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "config/config_parser.h"
#include "gtest/gtest.h"
#include "oracle/channel_tables.h"
#include "oracle/latency_model.h"
#include "sim/coc_system_sim.h"
#include "system/presets.h"
#include "topology/dragonfly.h"
#include "topology/full_crossbar.h"
#include "topology/k_ary_mesh.h"
#include "topology/m_port_n_tree.h"
#include "topology/topology_spec.h"

namespace coc {
namespace {

// Route validity shared by every Topology: contiguous endpoints, node
// terminals, and consistency with the routing oracle's length contract.
void CheckRoute(const Topology& t, std::int64_t src, std::int64_t dst) {
  const auto path = t.Route(src, dst);
  ASSERT_FALSE(path.empty());
  const ChannelInfo& first = t.Channel(path.front());
  const ChannelInfo& last = t.Channel(path.back());
  EXPECT_EQ(first.kind, ChannelKind::kNodeToSwitch);
  EXPECT_EQ(first.from.index, src);
  EXPECT_EQ(last.kind, ChannelKind::kSwitchToNode);
  EXPECT_EQ(last.to.index, dst);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_EQ(t.Channel(path[i]).to, t.Channel(path[i + 1]).from)
        << "discontinuity at hop " << i;
  }
}

// The journey census over all distinct ordered pairs must match the
// topology's closed-form Links() distribution exactly — the analytical model
// and the simulator agree through this invariant.
void CheckLinksMatchCensus(const Topology& t) {
  std::map<int, double> census;
  const std::int64_t n = t.num_nodes();
  for (std::int64_t a = 0; a < n; ++a) {
    for (std::int64_t b = 0; b < n; ++b) {
      if (a != b) census[static_cast<int>(t.Route(a, b).size())] += 1.0;
    }
  }
  const double total = static_cast<double>(n) * static_cast<double>(n - 1);
  const LinkDistribution& links = t.Links();
  double sum = 0;
  for (int d = 0; d <= links.max_links(); ++d) {
    const double expected = census.count(d) ? census[d] / total : 0.0;
    EXPECT_NEAR(links.P(d), expected, 1e-12) << "d=" << d;
    sum += links.P(d);
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

void CheckAccessMatchesCensus(const Topology& t) {
  std::map<int, double> census;
  const std::int64_t n = t.num_nodes();
  for (std::int64_t a = 0; a < n; ++a) {
    census[static_cast<int>(t.RouteToTap(a).size())] += 1.0;
  }
  const LinkDistribution& access = t.AccessLinks();
  for (int r = 0; r <= access.max_links(); ++r) {
    const double expected =
        census.count(r) ? census[r] / static_cast<double>(n) : 0.0;
    EXPECT_NEAR(access.P(r), expected, 1e-12) << "r=" << r;
  }
}

// Tap round trips must close: the access leg ends exactly where the egress
// leg re-enters, mirroring the tree's spine-switch contract.
void CheckTapClosure(const Topology& t) {
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

TEST(FullCrossbar, StructureAndRoutes) {
  const FullCrossbar x(6);
  EXPECT_EQ(x.num_nodes(), 6);
  EXPECT_EQ(x.num_channels(), 12);
  EXPECT_DOUBLE_EQ(x.ChannelsPerNode(), 4.0);  // the n = 1 tree value
  EXPECT_EQ(x.Links().P(2), 1.0);
  EXPECT_EQ(x.Links().MeanLinks(), 2.0);
  EXPECT_EQ(x.AccessLinks().P(1), 1.0);
  for (std::int64_t a = 0; a < 6; ++a) {
    for (std::int64_t b = 0; b < 6; ++b) {
      if (a == b) {
        EXPECT_TRUE(x.Route(a, b).empty());
      } else {
        EXPECT_EQ(x.Route(a, b).size(), 2u);
        CheckRoute(x, a, b);
      }
    }
  }
  CheckLinksMatchCensus(x);
  CheckAccessMatchesCensus(x);
  CheckTapClosure(x);
}

TEST(FullCrossbar, MatchesOnePortTreeStatistics) {
  // A crossbar with 2k ports is the m-port 1-tree with m = 2k: identical
  // link statistics and channel counts, hence identical model latency.
  const FullCrossbar x(8);
  const MPortNTree t(8, 1);
  EXPECT_EQ(x.num_nodes(), t.num_nodes());
  EXPECT_EQ(x.num_channels(), t.num_channels());
  EXPECT_EQ(x.Links().MeanLinks(), t.Links().MeanLinks());
  EXPECT_EQ(x.AccessLinks().MeanLinks(), t.AccessLinks().MeanLinks());
}

TEST(FullCrossbar, RejectsTooFewPorts) {
  EXPECT_THROW(FullCrossbar(1), std::invalid_argument);
  EXPECT_THROW(FullCrossbar(0), std::invalid_argument);
}

struct MeshCase {
  int radix;
  int dims;
  bool torus;
};

class MeshTest : public ::testing::TestWithParam<MeshCase> {};

TEST_P(MeshTest, StructureIsConsistent) {
  const auto [radix, dims, torus] = GetParam();
  const KAryMesh mesh(radix, dims, torus);
  std::int64_t n = 1;
  for (int j = 0; j < dims; ++j) n *= radix;
  EXPECT_EQ(mesh.num_nodes(), n);
  // 2N node links plus per-dimension router links.
  const std::int64_t per_dir =
      mesh.wraps() ? n : (n / radix) * (radix - 1);
  EXPECT_EQ(mesh.num_channels(), 2 * n + 2 * dims * per_dir);
  for (std::int64_t c = 0; c < mesh.num_channels(); ++c) {
    const ChannelInfo& info = mesh.Channel(c);
    if (info.kind == ChannelKind::kNodeToSwitch) {
      EXPECT_TRUE(info.from.is_node);
      EXPECT_FALSE(info.to.is_node);
    } else if (info.kind == ChannelKind::kSwitchToNode) {
      EXPECT_FALSE(info.from.is_node);
      EXPECT_TRUE(info.to.is_node);
    } else {
      EXPECT_FALSE(info.from.is_node);
      EXPECT_FALSE(info.to.is_node);
      EXPECT_EQ(mesh.Distance(info.from.index, info.to.index), 1);
    }
  }
}

TEST_P(MeshTest, DorRoutesAreValidAndLengthIsDistancePlusTwo) {
  const auto [radix, dims, torus] = GetParam();
  const KAryMesh mesh(radix, dims, torus);
  for (std::int64_t a = 0; a < mesh.num_nodes(); ++a) {
    for (std::int64_t b = 0; b < mesh.num_nodes(); ++b) {
      if (a == b) {
        EXPECT_TRUE(mesh.Route(a, b).empty());
        continue;
      }
      const auto path = mesh.Route(a, b);
      EXPECT_EQ(path.size(),
                static_cast<std::size_t>(mesh.Distance(a, b)) + 2);
      CheckRoute(mesh, a, b);
      // Deterministic: entropy is ignored by DOR.
      EXPECT_EQ(mesh.Route(a, b, 0xdeadbeef), path);
    }
  }
}

TEST_P(MeshTest, ExactJourneyStatistics) {
  const auto [radix, dims, torus] = GetParam();
  const KAryMesh mesh(radix, dims, torus);
  CheckLinksMatchCensus(mesh);
  CheckAccessMatchesCensus(mesh);
  CheckTapClosure(mesh);
}

TEST_P(MeshTest, RoutesNeverRevisitChannels) {
  const auto [radix, dims, torus] = GetParam();
  const KAryMesh mesh(radix, dims, torus);
  for (std::int64_t a = 0; a < mesh.num_nodes(); ++a) {
    for (std::int64_t b = 0; b < mesh.num_nodes(); ++b) {
      if (a == b) continue;
      auto path = mesh.Route(a, b);
      std::set<std::int64_t> unique(path.begin(), path.end());
      EXPECT_EQ(unique.size(), path.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MeshTest,
    ::testing::Values(MeshCase{2, 1, false}, MeshCase{3, 1, false},
                      MeshCase{4, 2, false}, MeshCase{3, 3, false},
                      MeshCase{3, 2, true}, MeshCase{4, 2, true},
                      MeshCase{5, 2, true}, MeshCase{2, 3, true}),
    [](const ::testing::TestParamInfo<MeshCase>& info) {
      return std::string(info.param.torus ? "torus" : "mesh") +
             std::to_string(info.param.radix) + "x" +
             std::to_string(info.param.dims);
    });

TEST(KAryMesh, TorusWrapShortensDistances) {
  const KAryMesh mesh(4, 1, false);
  const KAryMesh torus(4, 1, true);
  EXPECT_EQ(mesh.Distance(0, 3), 3);
  EXPECT_EQ(torus.Distance(0, 3), 1);  // wrap-around
  EXPECT_LT(torus.Links().MeanLinks(), mesh.Links().MeanLinks());
}

TEST(KAryMesh, RadixTwoTorusDegeneratesToMesh) {
  const KAryMesh torus(2, 2, true);
  const KAryMesh mesh(2, 2, false);
  EXPECT_FALSE(torus.wraps());
  EXPECT_EQ(torus.num_channels(), mesh.num_channels());
  EXPECT_EQ(torus.Links().MeanLinks(), mesh.Links().MeanLinks());
}

TEST(KAryMesh, RejectsBadParameters) {
  EXPECT_THROW(KAryMesh(1, 2, false), std::invalid_argument);
  EXPECT_THROW(KAryMesh(4, 0, false), std::invalid_argument);
}

TEST(KAryMesh, CenterTapShortensMeshAccessJourneys) {
  // The ROADMAP's non-uniform tap placement: anchoring the C/D at the
  // center router must cut the mean access distance on a mesh, with the
  // AccessLinks distribution regenerated to match the actual tap routes.
  for (const MeshCase c : {MeshCase{4, 2, false}, MeshCase{5, 2, false},
                           MeshCase{3, 3, false}, MeshCase{4, 2, true}}) {
    SCOPED_TRACE(std::to_string(c.radix) + "x" + std::to_string(c.dims) +
                 (c.torus ? " torus" : " mesh"));
    const KAryMesh corner(c.radix, c.dims, c.torus);
    const KAryMesh center(c.radix, c.dims, c.torus, /*center_tap=*/true);
    // The tap sits at coordinate radix/2 in every dimension.
    std::int64_t expected_tap = 0;
    std::int64_t stride = 1;
    for (int j = 0; j < c.dims; ++j) {
      expected_tap += (c.radix / 2) * stride;
      stride *= c.radix;
    }
    EXPECT_EQ(center.tap_router(), expected_tap);
    // Regenerated distribution matches the actual routes, and the tap round
    // trips still close.
    CheckAccessMatchesCensus(center);
    CheckTapClosure(center);
    // Full src->dst journeys are tap-independent.
    EXPECT_EQ(center.Links().MeanLinks(), corner.Links().MeanLinks());
    if (center.wraps()) {
      // Tori are vertex-transitive: the anchor cannot matter.
      EXPECT_EQ(center.AccessLinks().MeanLinks(),
                corner.AccessLinks().MeanLinks());
    } else {
      EXPECT_LT(center.AccessLinks().MeanLinks(),
                corner.AccessLinks().MeanLinks());
    }
  }
}

TEST(KAryMesh, CenterTapWorksEndToEndInASystem) {
  // A cluster whose ECN1 taps the mesh center must run through the full
  // model + simulator stack (the sim draws tap routes, the model the
  // regenerated access distribution).
  std::vector<ClusterConfig> clusters(4, ClusterConfig{1, Net1(), Net2()});
  for (auto& c : clusters) {
    c.icn1_topo = TopologySpec::Mesh(3, 2);
    c.ecn1_topo =
        TopologySpec::Mesh(3, 2, false, TopologySpec::Tap::kCenter);
  }
  const SystemConfig sys(4, clusters, Net1(), MessageFormat{8, 64});
  LatencyModel model(sys);
  const auto mr = model.Evaluate(1e-3);
  EXPECT_FALSE(mr.saturated);
  CocSystemSim sim(sys);
  SimConfig cfg;
  cfg.lambda_g = 1e-3;
  cfg.warmup_messages = 200;
  cfg.measured_messages = 2000;
  cfg.drain_messages = 200;
  const auto sr = sim.Run(cfg);
  EXPECT_EQ(sr.delivered, 2400);
  EXPECT_GT(sr.latency.Mean(), 0);
}

TEST(DragonflyFamily, MinRoutingJourneyStatisticsMatchCensus) {
  // The generic census helpers enumerate entropy-0 routes, which is exact
  // for minimal routing (the Valiant censuses need the entropy sweep and
  // live in tests/dragonfly_test.cc). dragonfly:4,2,2 is the ISSUE's
  // acceptance shape: 9 groups, 36 routers, 72 nodes.
  const Dragonfly df(4, 2, 2);
  EXPECT_EQ(df.num_nodes(), 72);
  CheckLinksMatchCensus(df);
  CheckAccessMatchesCensus(df);
  CheckTapClosure(df);
  for (std::int64_t a = 0; a < df.num_nodes(); a += 5) {
    for (std::int64_t b = 1; b < df.num_nodes(); b += 7) {
      if (a != b) CheckRoute(df, a, b);
    }
  }
}

TEST(DragonflyFamily, AccessJourneysAreTapPinnedAndShort) {
  // Minimal dragonfly diameter is 3 router hops, so access journeys cross
  // at most 4 links — compare with the 2n of a same-size tree.
  const Dragonfly df(4, 2, 2);
  EXPECT_EQ(df.AccessLinks().max_links(), 4);
  EXPECT_EQ(df.Links().max_links(), 5);
}

TEST(TopologySpec, ParsesAllForms) {
  EXPECT_EQ(ParseTopologySpec("tree").type, TopologySpec::Type::kTree);
  EXPECT_EQ(ParseTopologySpec("tree:3").n, 3);
  EXPECT_EQ(ParseTopologySpec("tree:3,m=8"), TopologySpec::Tree(8, 3));
  const auto full = ParseTopologySpec("tree:m=8,n=2");
  EXPECT_EQ(full.m, 8);
  EXPECT_EQ(full.n, 2);
  EXPECT_EQ(ParseTopologySpec("crossbar").ports, 0);
  EXPECT_EQ(ParseTopologySpec("crossbar:16").ports, 16);
  const auto mesh = ParseTopologySpec("mesh:4x2");
  EXPECT_EQ(mesh.type, TopologySpec::Type::kMesh);
  EXPECT_EQ(mesh.radix, 4);
  EXPECT_EQ(mesh.dims, 2);
  const auto torus = ParseTopologySpec("torus:radix=3,dims=2");
  EXPECT_EQ(torus.type, TopologySpec::Type::kTorus);
  EXPECT_EQ(torus.radix, 3);
  EXPECT_EQ(torus.dims, 2);
  EXPECT_EQ(torus.tap, TopologySpec::Tap::kCorner);
  const auto center = ParseTopologySpec("mesh:4x2,tap=center");
  EXPECT_EQ(center.radix, 4);
  EXPECT_EQ(center.dims, 2);
  EXPECT_EQ(center.tap, TopologySpec::Tap::kCenter);
  const auto center_kv = ParseTopologySpec("mesh:radix=4,dims=2,tap=center");
  EXPECT_EQ(center_kv, center);
  const auto df = ParseTopologySpec("dragonfly:4,2,2");
  EXPECT_EQ(df.type, TopologySpec::Type::kDragonfly);
  EXPECT_EQ(df.a, 4);
  EXPECT_EQ(df.p, 2);
  EXPECT_EQ(df.h, 2);
  EXPECT_EQ(df.routing, TopologySpec::Routing::kMin);
  EXPECT_EQ(ParseTopologySpec("dragonfly:a=4,p=2,h=2"), df);
  EXPECT_EQ(ParseTopologySpec("dragonfly:4,2,2,routing=min"), df);
  const auto val = ParseTopologySpec("dragonfly:4,2,2,routing=valiant");
  EXPECT_EQ(val.routing, TopologySpec::Routing::kValiant);
  EXPECT_EQ(val, TopologySpec::Dragonfly(4, 2, 2,
                                         TopologySpec::Routing::kValiant));
}

TEST(TopologySpec, RoundTripsThroughToString) {
  // Unset tree and crossbar parameters too: ToString must omit them, since
  // the parser rejects an explicit 0.
  for (const char* text : {"tree:m=8,n=2", "crossbar:16", "mesh:4x2",
                           "torus:3x3", "mesh:4x2,tap=center",
                           "torus:5x2,tap=center", "dragonfly:4,2,2",
                           "dragonfly:2,1,3,routing=valiant", "tree", "tree:3",
                           "tree:m=8", "crossbar"}) {
    const auto spec = ParseTopologySpec(text);
    EXPECT_EQ(ParseTopologySpec(spec.ToString()), spec) << text;
  }
}

TEST(TopologySpec, RejectsMalformedInput) {
  EXPECT_THROW(ParseTopologySpec("ring:8"), std::invalid_argument);
  EXPECT_THROW(ParseTopologySpec("mesh"), std::invalid_argument);
  EXPECT_THROW(ParseTopologySpec("mesh:4"), std::invalid_argument);
  EXPECT_THROW(ParseTopologySpec("tree:m=0"), std::invalid_argument);
  EXPECT_THROW(ParseTopologySpec("tree:depth=2"), std::invalid_argument);
  EXPECT_THROW(ParseTopologySpec("crossbar:-4"), std::invalid_argument);
  EXPECT_THROW(ParseTopologySpec("mesh:4x2,tap=middle"),
               std::invalid_argument);
  EXPECT_THROW(ParseTopologySpec("mesh:tap=center"), std::invalid_argument);
  EXPECT_THROW(ParseTopologySpec("dragonfly"), std::invalid_argument);
  EXPECT_THROW(ParseTopologySpec("dragonfly:4,2"), std::invalid_argument);
  EXPECT_THROW(ParseTopologySpec("dragonfly:4,2,2,1"), std::invalid_argument);
  EXPECT_THROW(ParseTopologySpec("dragonfly:4,2,2,routing=adaptive"),
               std::invalid_argument);
  EXPECT_THROW(ParseTopologySpec("dragonfly:4,2,2,tap=center"),
               std::invalid_argument);
  // int-typed parameters past INT_MAX must be rejected, not wrapped into a
  // different valid value (4294967300 would truncate to 4).
  EXPECT_THROW(ParseTopologySpec("dragonfly:4294967300,2,2"),
               std::invalid_argument);
  EXPECT_THROW(ParseTopologySpec("mesh:4294967300x2"), std::invalid_argument);
  EXPECT_THROW(ParseTopologySpec("tree:m=4294967300,n=2"),
               std::invalid_argument);
  // Positional tokens after key=value pairs would silently overwrite the
  // keyed values; rejected in every family.
  EXPECT_THROW(ParseTopologySpec("dragonfly:a=8,4,2,2"),
               std::invalid_argument);
  EXPECT_THROW(ParseTopologySpec("dragonfly:4,2,2,routing=valiant,3"),
               std::invalid_argument);
  // One parameter rule for every family: no empty token, and each
  // parameter once, positionally or by key.
  for (const char* text :
       {"tree:m=8,", "tree:n=2,n=3", "mesh:4x2,radix=8",
        "mesh:radix=4,radix=2,dims=2", "dragonfly:4,2,2,a=8",
        "dragonfly:a=4,a=2,p=2,h=2"}) {
    EXPECT_THROW(ParseTopologySpec(text), std::invalid_argument) << text;
  }
  // Counts follow the one integer rule: no '+' sign.
  EXPECT_THROW(ParseTopologySpec("crossbar:+16"), std::invalid_argument);
  EXPECT_THROW(ParseTopologySpec("mesh:+4x2"), std::invalid_argument);
  EXPECT_THROW(ParseTopologySpec("tree:m=+8,n=2"), std::invalid_argument);
  // Well-formed specs whose size would overflow (2 k^n, 2N) or allocate
  // gigabytes: building them fails with the bound, before any arithmetic.
  const struct {
    const char* spec;
    const char* message;
  } oversized[] = {
      {"tree:m=200000,n=4", "tree too large (> 2^22 nodes)"},
      {"tree:m=1000000,n=20", "tree too large (> 2^22 nodes)"},
      {"tree:m=8,n=2000000000", "1 <= n <= 20"},
      {"crossbar:4194305", "crossbar too large (> 2^22 nodes)"},
      {"crossbar:9223372036854775807", "crossbar too large (> 2^22 nodes)"},
      {"mesh:2147483647x1", "mesh too large (> 2^22 routers)"},
  };
  for (const auto& c : oversized) {
    const TopologySpec spec = ParseTopologySpec(c.spec);
    try {
      BuildTopology(spec);
      ADD_FAILURE() << c.spec << " built";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos)
          << c.spec << ": " << e.what();
    }
  }
  // The cap itself is inclusive, and costs no per-channel memory.
  EXPECT_EQ(BuildTopology(ParseTopologySpec("crossbar:4194304"))
                ->num_channels(),
            std::int64_t{1} << 23);
}

TEST(TopologySpec, BuildsEveryFamily) {
  EXPECT_EQ(BuildTopology(TopologySpec::Tree(4, 2))->num_nodes(), 8);
  EXPECT_EQ(BuildTopology(TopologySpec::Crossbar(5))->num_nodes(), 5);
  EXPECT_EQ(BuildTopology(TopologySpec::Mesh(3, 2))->num_nodes(), 9);
  EXPECT_EQ(BuildTopology(TopologySpec::Mesh(3, 2, true))->num_nodes(), 9);
  // dragonfly:4,2,2 -> (4*2+1) groups * 4 routers * 2 nodes = 72.
  EXPECT_EQ(BuildTopology(TopologySpec::Dragonfly(4, 2, 2))->num_nodes(), 72);
  EXPECT_EQ(BuildTopology(
                TopologySpec::Dragonfly(2, 2, 1,
                                        TopologySpec::Routing::kValiant))
                ->Name(),
            "dragonfly 2,2,1 (valiant)");
}

// Channel(id) is decoded arithmetically; it must reproduce, field by field
// and for every id, the table each family's constructor used to fill
// (tests/oracle/channel_tables.h).
void ExpectMatchesTable(const Topology& t,
                        const std::vector<ChannelInfo>& table) {
  ASSERT_EQ(t.num_channels(), static_cast<std::int64_t>(table.size()))
      << t.Name();
  for (std::int64_t id = 0; id < t.num_channels(); ++id) {
    const ChannelInfo got = t.Channel(id);
    const ChannelInfo& want = table[static_cast<std::size_t>(id)];
    ASSERT_EQ(got.kind, want.kind) << t.Name() << " id " << id;
    ASSERT_EQ(got.from, want.from) << t.Name() << " id " << id;
    ASSERT_EQ(got.to, want.to) << t.Name() << " id " << id;
  }
}

TEST(ChannelDecode, TreeMatchesTheStoredTable) {
  for (int m : {4, 6, 8}) {
    for (int n : {1, 2, 3}) {
      ExpectMatchesTable(MPortNTree(m, n), TreeChannelTable(m, n));
    }
  }
}

TEST(ChannelDecode, CrossbarMatchesTheStoredTable) {
  for (std::int64_t ports : {2, 3, 5, 16}) {
    ExpectMatchesTable(FullCrossbar(ports), CrossbarChannelTable(ports));
  }
}

TEST(ChannelDecode, MeshAndTorusMatchTheStoredTable) {
  for (int radix = 2; radix <= 5; ++radix) {
    for (int dims = 1; dims <= 3; ++dims) {
      for (bool torus : {false, true}) {
        for (bool center : {false, true}) {
          ExpectMatchesTable(KAryMesh(radix, dims, torus, center),
                             MeshChannelTable(radix, dims, torus));
        }
      }
    }
  }
}

TEST(ChannelDecode, DragonflyMatchesTheStoredTable) {
  const int shapes[][3] = {{1, 1, 1}, {1, 2, 3}, {2, 1, 1},
                           {2, 2, 2}, {3, 1, 2}, {4, 2, 2}};
  for (const auto& s : shapes) {
    for (auto routing :
         {Dragonfly::Routing::kMin, Dragonfly::Routing::kValiant}) {
      ExpectMatchesTable(Dragonfly(s[0], s[1], s[2], routing),
                         DragonflyChannelTable(s[0], s[1], s[2]));
    }
  }
}

// The layout CocSystemSim::RegisterNetwork relies on to assign t_cn / t_cs
// by id range: a channel is a node link exactly when its id is below 2N.
TEST(ChannelDecode, NodeLinksAreExactlyTheIdsBelowTwoN) {
  for (const char* text :
       {"tree:m=4,n=1", "tree:m=8,n=3", "crossbar:7", "mesh:3x2",
        "mesh:2x3,tap=center", "torus:4x2", "dragonfly:1,2,3",
        "dragonfly:4,2,2,routing=valiant"}) {
    const auto t = BuildTopology(ParseTopologySpec(text));
    EXPECT_EQ(t->num_node_links(), 2 * t->num_nodes()) << text;
    for (std::int64_t id = 0; id < t->num_channels(); ++id) {
      const ChannelKind kind = t->Channel(id).kind;
      const bool node_link = kind == ChannelKind::kNodeToSwitch ||
                             kind == ChannelKind::kSwitchToNode;
      ASSERT_EQ(node_link, id < t->num_node_links()) << text << " id " << id;
    }
  }
}

TEST(SystemConfigTopologies, DefaultsReproduceThePaperTrees) {
  const auto sys = MakeSystem1120(MessageFormat{32, 256});
  EXPECT_EQ(sys.icn1_topology(0).Name(), "8-port 1-tree");
  EXPECT_EQ(sys.icn1_topology(31).Name(), "8-port 3-tree");
  EXPECT_EQ(sys.icn2_topology().Name(), "8-port 2-tree");
  // ICN1 and ECN1 default to the same spec and therefore share an instance;
  // so do clusters of equal depth — the cached link distributions are
  // computed once per distinct shape.
  EXPECT_EQ(&sys.icn1_topology(0), &sys.ecn1_topology(0));
  EXPECT_EQ(&sys.icn1_topology(0), &sys.icn1_topology(11));
  EXPECT_NE(&sys.icn1_topology(0), &sys.icn1_topology(31));
  // Links() is cached: repeated calls return the same object.
  EXPECT_EQ(&sys.icn1_topology(0).Links(), &sys.icn1_topology(0).Links());
}

TEST(SystemConfigTopologies, MixedPresetResolvesAllFamilies) {
  const auto sys = MakeMixedTopologySystem(MessageFormat{16, 64});
  ASSERT_EQ(sys.num_clusters(), 4);
  EXPECT_EQ(sys.TotalNodes(), 32);
  EXPECT_EQ(sys.icn1_topology(0).Name(), "4-port 2-tree");
  EXPECT_EQ(sys.icn1_topology(2).Name(), "mesh 2x2x2");
  EXPECT_EQ(sys.icn1_topology(3).Name(), "crossbar 8");
  // ECN1 mirrors the ICN1 family by default.
  EXPECT_EQ(sys.ecn1_topology(2).Name(), "mesh 2x2x2");
  EXPECT_EQ(sys.ecn1_topology(3).Name(), "crossbar 8");
  for (int i = 0; i < 4; ++i) EXPECT_EQ(sys.NodesInCluster(i), 8);
  EXPECT_TRUE(sys.icn2_exact_fit());
}

TEST(SystemConfigTopologies, MismatchedEcn1NodeCountThrows) {
  ClusterConfig bad{2, Net1(), Net2()};
  bad.ecn1_topo = TopologySpec::Crossbar(4);  // cluster has 8 nodes
  EXPECT_THROW(SystemConfig(4, {bad}, Net1(), MessageFormat{16, 64}),
               std::invalid_argument);
}

TEST(SystemConfigTopologies, NonTreeIcn2) {
  std::vector<ClusterConfig> clusters(4, ClusterConfig{1, Net1(), Net2()});
  const SystemConfig xbar(4, clusters, Net1(), MessageFormat{16, 64},
                          TopologySpec::Crossbar());
  EXPECT_EQ(xbar.icn2_topology().Name(), "crossbar 4");
  EXPECT_EQ(xbar.icn2_depth(), 0);
  EXPECT_TRUE(xbar.icn2_exact_fit());
  const SystemConfig mesh(4, clusters, Net1(), MessageFormat{16, 64},
                          TopologySpec::Mesh(2, 2));
  EXPECT_EQ(mesh.icn2_topology().Name(), "mesh 2x2");
  EXPECT_TRUE(mesh.icn2_exact_fit());
  // Too-small explicit ICN2 is rejected.
  EXPECT_THROW(SystemConfig(4, clusters, Net1(), MessageFormat{16, 64},
                            TopologySpec::Crossbar(2)),
               std::invalid_argument);
}

TEST(ConfigParserTopologies, ParsesHeterogeneousTopologyConfig) {
  const char* config = R"(
[system]
m = 4
icn2 = fast
icn2_topology = crossbar
message_flits = 16
flit_bytes = 64

[network fast]
bandwidth = 500
network_latency = 0.01
switch_latency = 0.02

[network slow]
bandwidth = 250
network_latency = 0.05
switch_latency = 0.01

[clusters]
n = 2
icn1 = fast
ecn1 = slow

[clusters]
topology = mesh:2x3
icn1 = fast
ecn1 = slow
ecn1_topology = crossbar

[clusters]
topology = dragonfly:1,4,1,routing=valiant
icn1 = fast
ecn1 = slow
)";
  const auto sys = ParseSystemConfig(config);
  ASSERT_EQ(sys.num_clusters(), 3);
  EXPECT_EQ(sys.icn1_topology(0).Name(), "4-port 2-tree");
  EXPECT_EQ(sys.icn1_topology(1).Name(), "mesh 2x2x2");
  EXPECT_EQ(sys.ecn1_topology(1).Name(), "crossbar 8");
  EXPECT_EQ(sys.icn1_topology(2).Name(), "dragonfly 1,4,1 (valiant)");
  EXPECT_EQ(sys.ecn1_topology(2).Name(), "dragonfly 1,4,1 (valiant)");
  EXPECT_EQ(sys.icn2_topology().Name(), "crossbar 3");
  EXPECT_EQ(sys.NodesInCluster(0), 8);
  EXPECT_EQ(sys.NodesInCluster(1), 8);
  EXPECT_EQ(sys.NodesInCluster(2), 8);
}

TEST(SystemConfigTopologies, Icn2AutoDepthHonorsExplicitTreeArity) {
  // 16 clusters on an m=16 system, but the ICN2 overridden to a 4-port
  // tree: auto-depth must size with the spec's arity (k=2 -> depth 3,
  // 16 slots), not the system's (k=8 -> depth 1, 4 slots).
  std::vector<ClusterConfig> clusters(16, ClusterConfig{1, Net1(), Net2()});
  const SystemConfig sys(16, clusters, Net1(), MessageFormat{16, 64},
                         TopologySpec::Tree(4, 0));
  EXPECT_EQ(sys.icn2_topology().Name(), "4-port 3-tree");
  EXPECT_EQ(sys.icn2_depth(), 3);
  EXPECT_TRUE(sys.icn2_exact_fit());
}

TEST(ConfigParserTopologies, DepthlessTreeTopologyFailsWithLineNumber) {
  const char* config = R"(
[system]
m = 4
icn2 = fast
message_flits = 16
flit_bytes = 64

[network fast]
bandwidth = 500
network_latency = 0.01
switch_latency = 0.02

[clusters]
topology = tree
icn1 = fast
ecn1 = fast
)";
  try {
    ParseSystemConfig(config);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("config line"), std::string::npos)
        << e.what();
  }
}

TEST(ConfigParserTopologies, RejectsClusterWithoutDepthOrTopology) {
  const char* config = R"(
[system]
m = 4
icn2 = fast
message_flits = 16
flit_bytes = 64

[network fast]
bandwidth = 500
network_latency = 0.01
switch_latency = 0.02

[clusters]
icn1 = fast
ecn1 = fast
)";
  EXPECT_THROW(ParseSystemConfig(config), std::invalid_argument);
}

// --- Acceptance: heterogeneous topology families end to end ---------------

TEST(MixedTopologyEndToEnd, ModelEvaluatesFiniteAndMonotone) {
  const auto sys = MakeMixedTopologySystem(MessageFormat{16, 64});
  LatencyModel model(sys);
  double prev = 0;
  for (double lg : {5e-5, 1e-4, 2e-4, 4e-4}) {
    const auto r = model.Evaluate(lg);
    EXPECT_FALSE(r.saturated) << "lambda_g=" << lg;
    EXPECT_TRUE(std::isfinite(r.mean_latency));
    EXPECT_GT(r.mean_latency, prev);
    prev = r.mean_latency;
  }
  EXPECT_GT(model.SaturationRate(1e-2), 0.0);
}

TEST(MixedTopologyEndToEnd, SimulatorDeliversEverythingDeterministically) {
  const auto sys = MakeMixedTopologySystem(MessageFormat{16, 64});
  CocSystemSim sim(sys);
  SimConfig cfg;
  cfg.lambda_g = 1e-4;
  cfg.warmup_messages = 300;
  cfg.measured_messages = 3000;
  cfg.drain_messages = 300;
  cfg.seed = 9;
  const auto a = sim.Run(cfg);
  EXPECT_EQ(a.delivered, 3600);
  EXPECT_EQ(a.latency.Count(), 3000u);
  const auto b = sim.Run(cfg);
  EXPECT_DOUBLE_EQ(a.latency.Mean(), b.latency.Mean());
}

TEST(MixedTopologyEndToEnd, PathLengthsMatchTopologyDistances) {
  const auto sys = MakeMixedTopologySystem(MessageFormat{16, 64});
  CocSystemSim sim(sys);
  // Intra-cluster paths in the mesh cluster (index 2) follow DOR distances.
  const KAryMesh mesh(2, 3, false);
  const auto base = sys.ClusterBase(2);
  for (std::int64_t a = 0; a < 8; ++a) {
    for (std::int64_t b = 0; b < 8; ++b) {
      if (a == b) continue;
      EXPECT_EQ(sim.BuildPath(base + a, base + b).size(),
                static_cast<std::size_t>(mesh.Distance(a, b)) + 2);
    }
  }
  // Inter-cluster: tree cluster -> mesh cluster crosses
  // r (tree access) + 2 (ICN2 depth-1 tree) + v (mesh egress) links.
  const MPortNTree tree(4, 2);
  const auto tree_base = sys.ClusterBase(0);
  for (std::int64_t ls = 0; ls < 8; ++ls) {
    for (std::int64_t ld = 0; ld < 8; ++ld) {
      const auto path = sim.BuildPath(tree_base + ls, base + ld);
      const int r = std::max(1, tree.NcaLevel(ls, 0));
      const int v = mesh.Distance(0, ld) + 1;
      EXPECT_EQ(path.size(), static_cast<std::size_t>(r + 2 + v));
    }
  }
}

TEST(MixedTopologyEndToEnd, ModelTracksSimulationAtLightLoad) {
  const auto sys = MakeMixedTopologySystem(MessageFormat{16, 64});
  LatencyModel model(sys);
  CocSystemSim sim(sys);
  SimConfig cfg;
  cfg.lambda_g = 1e-4;
  cfg.warmup_messages = 1000;
  cfg.measured_messages = 10000;
  cfg.drain_messages = 1000;
  const auto sr = sim.Run(cfg);
  const double analysis = model.Evaluate(cfg.lambda_g).mean_latency;
  const double err =
      100.0 * std::fabs(analysis - sr.latency.Mean()) / sr.latency.Mean();
  EXPECT_LT(err, 20.0) << "analysis=" << analysis
                       << " sim=" << sr.latency.Mean();
}

TEST(MixedTopologyEndToEnd, NonTreeIcn2CarriesInterClusterTraffic) {
  // Swap the global network to a torus and run the whole stack end to end.
  const auto base = MakeMixedTopologySystem(MessageFormat{16, 64});
  std::vector<ClusterConfig> clusters;
  for (int i = 0; i < base.num_clusters(); ++i) {
    clusters.push_back(base.cluster(i));
  }
  const SystemConfig sys(base.m(), std::move(clusters), base.icn2(),
                         base.message(), TopologySpec::Mesh(2, 2));
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
  EXPECT_GT(r.inter_latency.Count(), 0u);
  EXPECT_GT(r.icn2_util.Mean(r.duration), 0.0);
}

}  // namespace
}  // namespace coc
