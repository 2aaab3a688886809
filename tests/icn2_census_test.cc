// The ICN2 census by formula: every topology family's closed-form prefix
// census (Topology::PrefixJourneys) against the routed count of
// tests/oracle/icn2_census.h, bit for bit, at every prefix of small
// topologies, and through SystemConfig for the sparse ICN2 overrides of the
// paper's organizations.
#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "oracle/icn2_census.h"
#include "system/presets.h"
#include "system/system_config.h"
#include "topology/dragonfly.h"
#include "topology/full_crossbar.h"
#include "topology/k_ary_mesh.h"
#include "topology/m_port_n_tree.h"
#include "topology/topology_spec.h"

namespace coc {
namespace {

/// The prefix census as SystemConfig keeps it: counts converted once.
LinkDistribution FormulaCensus(const Topology& t, std::int64_t c) {
  const std::vector<std::int64_t> journeys = t.PrefixJourneys(c);
  return LinkDistribution(
      std::vector<double>(journeys.begin(), journeys.end()));
}

/// Empty when the two distributions are bit-equal, else the first mismatch.
std::string Mismatch(const LinkDistribution& want,
                     const LinkDistribution& got) {
  if (want.max_links() != got.max_links()) return "max_links";
  if (want.MeanLinks() != got.MeanLinks()) return "MeanLinks";
  for (int d = 0; d <= want.max_links(); ++d) {
    if (want.P(d) != got.P(d)) return "P(" + std::to_string(d) + ")";
  }
  return "";
}

/// Every prefix c in [2, N] of `t` against the routed census.
void ExpectEveryPrefixMatches(const Topology& t) {
  for (std::int64_t c = 2; c <= t.num_nodes(); ++c) {
    EXPECT_EQ(Mismatch(RoutedIcn2Census(t, c), FormulaCensus(t, c)), "")
        << t.Name() << ", c = " << c;
  }
}

TEST(Icn2Census, TreePrefixesMatchTheRoutedCount) {
  for (const auto& [m, n] : std::vector<std::pair<int, int>>{
           {4, 1}, {4, 2}, {4, 3}, {4, 4}, {4, 5}, {6, 1}, {6, 2}, {6, 3},
           {8, 1}, {8, 2}, {8, 3}, {10, 2}, {16, 2}}) {
    ExpectEveryPrefixMatches(MPortNTree(m, n));
  }
}

TEST(Icn2Census, MeshAndTorusPrefixesMatchTheRoutedCount) {
  for (const auto& [radix, dims] : std::vector<std::pair<int, int>>{
           {2, 1}, {2, 3}, {2, 7}, {3, 1}, {3, 2}, {3, 4}, {4, 2}, {4, 3},
           {5, 2}, {5, 3}, {9, 2}, {64, 1}}) {
    for (const bool torus : {false, true}) {
      ExpectEveryPrefixMatches(KAryMesh(radix, dims, torus));
    }
  }
}

TEST(Icn2Census, CrossbarPrefixesMatchTheRoutedCount) {
  ExpectEveryPrefixMatches(FullCrossbar(2));
  ExpectEveryPrefixMatches(FullCrossbar(100));
}

TEST(Icn2Census, DragonflyPrefixesMatchTheRoutedCountUnderBothRoutings) {
  for (const auto& [a, p, h] : std::vector<std::array<int, 3>>{
           {1, 2, 1}, {2, 1, 1}, {2, 2, 2}, {3, 2, 2}, {4, 1, 3}, {4, 2, 2}}) {
    for (const auto routing :
         {Dragonfly::Routing::kMin, Dragonfly::Routing::kValiant}) {
      ExpectEveryPrefixMatches(Dragonfly(a, p, h, routing));
    }
  }
}

TEST(Icn2Census, FullOccupancyIsTheTopologysClosedForm) {
  const std::vector<std::shared_ptr<const Topology>> topologies = {
      std::make_shared<MPortNTree>(4, 3), std::make_shared<MPortNTree>(8, 3),
      std::make_shared<MPortNTree>(16, 2), std::make_shared<FullCrossbar>(9),
      std::make_shared<KAryMesh>(4, 3, false),
      std::make_shared<KAryMesh>(5, 2, true),
      std::make_shared<KAryMesh>(2, 6, true),
      std::make_shared<KAryMesh>(4, 8, false)};
  for (const auto& t : topologies) {
    EXPECT_EQ(Mismatch(t->Links(), FormulaCensus(*t, t->num_nodes())), "")
        << t->Name();
  }
}

TEST(Icn2Census, OneDimensionalMeshPrefixIsLinearNotQuadratic) {
  // 2^20 slots of a 2^22-router line: 2 (c - t) ordered pairs sit t hops
  // apart, crossing t + 2 links. Routing the 2^40 pairs would not finish.
  const KAryMesh line(4194304, 1, /*torus=*/false);
  const std::int64_t c = std::int64_t{1} << 20;
  const std::vector<std::int64_t> journeys = line.PrefixJourneys(c);
  ASSERT_GE(journeys.size(), static_cast<std::size_t>(c + 2));
  std::int64_t wrong = 0;
  for (std::size_t d = 0; d < journeys.size(); ++d) {
    const auto t = static_cast<std::int64_t>(d) - 2;
    const std::int64_t want = t >= 1 && t < c ? 2 * (c - t) : 0;
    wrong += journeys[d] != want ? 1 : 0;
  }
  EXPECT_EQ(wrong, 0);
}

TEST(Icn2Census, DragonflyRefusesTooManyPairsBeforeRouting) {
  // Over 2^21 slots: routing the 4e12 pairs would take days, so the refusal
  // has to come first. 1,024 slots (1,047,552 pairs) still count.
  const Dragonfly big(16, 1100, 8);
  ASSERT_GT(big.num_nodes(), std::int64_t{1} << 21);
  try {
    big.PrefixJourneys(big.num_nodes());
    ADD_FAILURE() << "expected the ordered-pair bound";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ordered slot pairs (> 2^20)"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(big.PrefixJourneys(1025), std::invalid_argument);
  const std::vector<std::int64_t> journeys = big.PrefixJourneys(1024);
  std::int64_t pairs = 0;
  for (const std::int64_t n : journeys) pairs += n;
  EXPECT_EQ(pairs, 1024 * 1023);
  EXPECT_LE(pairs, Dragonfly::kMaxPrefixPairs);
}

TEST(Icn2Census, SparseOverridesOfThePaperSystemsMatchTheRoutedCount) {
  // The sparse ICN2 overrides the served dial walk uses: preset:1120's 32
  // clusters on tree:3, mesh:4x8 and torus:4x8, and preset:544's 16 on the
  // two meshes. Also a lone cluster, whose census is one 2-link journey.
  const MessageFormat msg{32, 256};
  std::vector<SystemConfig> systems;
  for (const char* spec : {"tree:3", "mesh:4x8", "torus:4x8"}) {
    systems.push_back(
        MakeSystem1120(msg).WithIcn2Topology(ParseTopologySpec(spec)));
  }
  for (const char* spec : {"mesh:4x8", "torus:4x8"}) {
    systems.push_back(
        MakeSystem544(msg).WithIcn2Topology(ParseTopologySpec(spec)));
  }
  systems.emplace_back(8, std::vector<ClusterConfig>{ClusterConfig{
                              1, Net1(), Net2()}},
                       Net1(), msg);
  for (const SystemConfig& sys : systems) {
    ASSERT_FALSE(sys.icn2_exact_fit());
    EXPECT_EQ(Mismatch(RoutedIcn2Census(sys.icn2_topology(),
                                        sys.num_clusters()),
                       sys.icn2_links()),
              "")
        << sys.icn2_topology().Name() << ", " << sys.num_clusters()
        << " clusters";
  }
}

}  // namespace
}  // namespace coc
