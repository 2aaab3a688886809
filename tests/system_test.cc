// Tests for the system configuration layer: Table 1/2 presets, derived sizes,
// outgoing probability (Eq. 2), cluster/node mapping, validation, and the
// ICN2 census one system and its copies share (counted once, by the
// constructor, and read safely from several threads).
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "gtest/gtest.h"
#include "model/compiled_model.h"
#include "oracle/icn2_census.h"
#include "system/network_characteristics.h"
#include "system/presets.h"
#include "system/system_config.h"
#include "topology/topology_spec.h"

namespace coc {
namespace {

TEST(NetworkCharacteristics, Table2ServiceTimes) {
  // Net.1: beta = 1/500; t_cn = 0.5*0.01 + 256/500; t_cs = 0.02 + 256/500.
  const auto net1 = Net1();
  EXPECT_DOUBLE_EQ(net1.beta(), 1.0 / 500.0);
  EXPECT_DOUBLE_EQ(net1.TCn(256), 0.005 + 256.0 / 500.0);
  EXPECT_DOUBLE_EQ(net1.TCs(256), 0.02 + 256.0 / 500.0);
  const auto net2 = Net2();
  EXPECT_DOUBLE_EQ(net2.TCn(512), 0.025 + 512.0 / 250.0);
  EXPECT_DOUBLE_EQ(net2.TCs(512), 0.01 + 512.0 / 250.0);
}

TEST(NetworkCharacteristics, ValidationRejectsNonPositiveBandwidth) {
  NetworkCharacteristics bad{0.0, 0.01, 0.01};
  EXPECT_THROW(bad.Validate(), std::invalid_argument);
  NetworkCharacteristics neg{100.0, -0.1, 0.01};
  EXPECT_THROW(neg.Validate(), std::invalid_argument);
}

TEST(MessageFormat, ValidationRejectsBadValues) {
  MessageFormat bad{0, 256};
  EXPECT_THROW(bad.Validate(), std::invalid_argument);
  MessageFormat bad2{32, 0};
  EXPECT_THROW(bad2.Validate(), std::invalid_argument);
}

TEST(SystemConfig, Table1Row1TotalsAndSizes) {
  const auto sys = MakeSystem1120(MessageFormat{32, 256});
  EXPECT_EQ(sys.m(), 8);
  EXPECT_EQ(sys.num_clusters(), 32);
  EXPECT_EQ(sys.TotalNodes(), 1120);
  EXPECT_EQ(sys.NodesInCluster(0), 8);    // n=1: 2*4^1
  EXPECT_EQ(sys.NodesInCluster(12), 32);  // n=2: 2*4^2
  EXPECT_EQ(sys.NodesInCluster(31), 128); // n=3: 2*4^3
  // ICN2: C=32 concentrators in an 8-port n_c-tree: 2*4^2 = 32 => n_c = 2.
  EXPECT_EQ(sys.icn2_depth(), 2);
  EXPECT_TRUE(sys.icn2_exact_fit());
}

TEST(SystemConfig, Table1Row2TotalsAndSizes) {
  const auto sys = MakeSystem544(MessageFormat{64, 512});
  EXPECT_EQ(sys.m(), 4);
  EXPECT_EQ(sys.num_clusters(), 16);
  EXPECT_EQ(sys.TotalNodes(), 544);
  EXPECT_EQ(sys.NodesInCluster(0), 16);   // n=3: 2*2^3
  EXPECT_EQ(sys.NodesInCluster(8), 32);   // n=4
  EXPECT_EQ(sys.NodesInCluster(15), 64);  // n=5
  // C=16 in a 4-port n_c-tree: 2*2^3 = 16 => n_c = 3.
  EXPECT_EQ(sys.icn2_depth(), 3);
  EXPECT_TRUE(sys.icn2_exact_fit());
}

TEST(SystemConfig, OutgoingProbabilityMatchesEq2) {
  const auto sys = MakeSystem1120(MessageFormat{32, 256});
  // U^(i) = 1 - (N_i - 1)/(N - 1).
  EXPECT_NEAR(sys.OutgoingProbability(0), 1.0 - 7.0 / 1119.0, 1e-15);
  EXPECT_NEAR(sys.OutgoingProbability(31), 1.0 - 127.0 / 1119.0, 1e-15);
  // Larger clusters keep more traffic inside.
  EXPECT_LT(sys.OutgoingProbability(31), sys.OutgoingProbability(0));
}

TEST(SystemConfig, ClusterOfNodeRoundTrips) {
  const auto sys = MakeSystem544(MessageFormat{32, 256});
  for (int i = 0; i < sys.num_clusters(); ++i) {
    const auto base = sys.ClusterBase(i);
    EXPECT_EQ(sys.ClusterOfNode(base), i);
    EXPECT_EQ(sys.ClusterOfNode(base + sys.NodesInCluster(i) - 1), i);
  }
  EXPECT_EQ(sys.ClusterOfNode(0), 0);
  EXPECT_EQ(sys.ClusterOfNode(sys.TotalNodes() - 1), sys.num_clusters() - 1);
}

TEST(SystemConfig, RejectsMalformedInput) {
  EXPECT_THROW(SystemConfig(5, {ClusterConfig{1, Net1(), Net2()}}, Net1(),
                            MessageFormat{}),
               std::invalid_argument);
  EXPECT_THROW(SystemConfig(4, {}, Net1(), MessageFormat{}),
               std::invalid_argument);
  EXPECT_THROW(SystemConfig(4, {ClusterConfig{0, Net1(), Net2()}}, Net1(),
                            MessageFormat{}),
               std::invalid_argument);
}

TEST(SystemConfig, PartialIcn2OccupancyDetected) {
  // C=3 clusters with m=4 (k=2): 2*2^1 = 4 slots at depth 1 => not exact.
  std::vector<ClusterConfig> clusters(3, ClusterConfig{1, Net1(), Net2()});
  SystemConfig sys(4, clusters, Net1(), MessageFormat{});
  EXPECT_EQ(sys.icn2_depth(), 1);
  EXPECT_FALSE(sys.icn2_exact_fit());
}

/// preset:1120's 32 clusters on a 128-slot ICN2: the model reads the
/// census of the occupied slots, not the tree's closed form.
SystemConfig Sparse1120() {
  return MakeSystem1120(MessageFormat{32, 256})
      .WithIcn2Topology(ParseTopologySpec("tree:3"));
}

void ExpectSameLinks(const LinkDistribution& want,
                     const LinkDistribution& got) {
  ASSERT_EQ(want.max_links(), got.max_links());
  EXPECT_EQ(want.MeanLinks(), got.MeanLinks());
  for (int d = 0; d <= want.max_links(); ++d) {
    EXPECT_EQ(want.P(d), got.P(d)) << "d = " << d;
  }
}

TEST(SystemConfig, Icn2CensusIsCountedOnceForASystemAndItsCopies) {
  const SystemConfig sys = Sparse1120();
  ASSERT_FALSE(sys.icn2_exact_fit());
  const SystemConfig copy = sys;
  const CompiledModel a(sys);
  const CompiledModel b(copy, Workload::ClusterLocal(0.5));
  const CompiledModel rebound = b.Rebind(Workload::Uniform());
  const LinkDistribution* census = &sys.icn2_links();
  EXPECT_EQ(&copy.icn2_links(), census);
  EXPECT_EQ(&a.system().icn2_links(), census);
  EXPECT_EQ(&b.system().icn2_links(), census);
  EXPECT_EQ(&rebound.system().icn2_links(), census);
  // A system built again counts its own census, with the same weights.
  const SystemConfig fresh = Sparse1120();
  EXPECT_NE(&fresh.icn2_links(), census);
  ExpectSameLinks(fresh.icn2_links(), *census);
  // At an exact fit the distribution is the topology's closed form.
  const SystemConfig fit = MakeSystem1120(MessageFormat{32, 256});
  EXPECT_EQ(&fit.icn2_links(), &fit.icn2_topology().Links());
}

TEST(SystemConfig, Icn2CensusComesWithTheSystemAndNoDeadlineNamesIt) {
  // The constructor counts the census in closed form, equal to the routed
  // count, so a compile has no census stage: tripped at any of its probes,
  // it names only the model's own.
  const SystemConfig sys = Sparse1120();
  ExpectSameLinks(RoutedIcn2Census(sys.icn2_topology(), sys.num_clusters()),
                  sys.icn2_links());
  int tripped = 0;
  for (int k = 0; k < 10'000; ++k) {
    const Deadline deadline = Deadline::TripAfterChecks(k);
    try {
      CompiledModel(sys, ModelOptions{}, &deadline);
      break;
    } catch (const DeadlineExceeded& e) {
      ++tripped;
      const std::string what = e.what();
      EXPECT_EQ(what.find("ICN2 census"), std::string::npos) << what;
      EXPECT_NE(what.find("during model compilation ("), std::string::npos)
          << what;
    }
  }
  EXPECT_GT(tripped, 0);
}

TEST(SystemConfig, Icn2CensusCanBeCountedFromFourThreadsAtOnce) {
  // Four compiles read one system's shared state at once (ThreadSanitizer
  // runs this suite); every model must read the one census it holds.
  const SystemConfig sys = Sparse1120();
  std::vector<const LinkDistribution*> seen(4, nullptr);
  std::vector<double> rate(4, 0.0);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    workers.emplace_back([&, t] {
      const CompiledModel model(sys, Workload::ClusterLocal(0.25 * t));
      seen[t] = &model.system().icn2_links();
      rate[t] = model.SaturationRate(1.0);
    });
  }
  for (std::thread& w : workers) w.join();
  for (std::size_t t = 0; t < seen.size(); ++t) {
    EXPECT_EQ(seen[t], &sys.icn2_links()) << t;
    EXPECT_EQ(rate[t], CompiledModel(Sparse1120(),
                                     Workload::ClusterLocal(0.25 * t))
                           .SaturationRate(1.0))
        << t;
  }
}

TEST(Presets, SmallAndTinyAreConsistent) {
  const auto small = MakeSmallSystem(MessageFormat{16, 64});
  EXPECT_EQ(small.num_clusters(), 8);
  EXPECT_TRUE(small.icn2_exact_fit());
  const auto tiny = MakeTinySystem(MessageFormat{16, 64});
  EXPECT_EQ(tiny.num_clusters(), 4);
  EXPECT_TRUE(tiny.icn2_exact_fit());
  EXPECT_EQ(tiny.TotalNodes(), 4 * 8);  // 4 clusters of 2*2^2 nodes
}

}  // namespace
}  // namespace coc
