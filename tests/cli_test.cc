// Tests for the CLI layer: config parsing (happy path, every rejection
// branch and a seeded mutation sweep), preset loading, each command's output
// through string streams, the exact-text pins guarding the Scenario/Engine
// re-plumb, the --format encodings, the batch service path, and the
// workload.* keys read alike by config files, scenario files and flags.
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/scenario.h"
#include "cli/cli.h"
#include "config/config_parser.h"
#include "common/json.h"
#include "harness/sweep.h"
#include "gtest/gtest.h"
#include "ini_mutation.h"

namespace coc {
namespace {

constexpr const char* kValidConfig = R"(
# a heterogeneous two-tier system
[system]
m = 4
icn2 = fast
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
count = 2
n = 1
icn1 = fast
ecn1 = slow

[clusters]
count = 2
n = 2
icn1 = fast
ecn1 = slow
)";

TEST(ConfigParser, ParsesValidConfig) {
  const auto sys = ParseSystemConfig(kValidConfig);
  EXPECT_EQ(sys.m(), 4);
  EXPECT_EQ(sys.num_clusters(), 4);
  EXPECT_EQ(sys.NodesInCluster(0), 4);   // n=1: 2*2
  EXPECT_EQ(sys.NodesInCluster(2), 8);   // n=2: 2*4
  EXPECT_EQ(sys.TotalNodes(), 24);
  EXPECT_EQ(sys.message().length_flits, 16);
  EXPECT_DOUBLE_EQ(sys.message().flit_bytes, 64);
  EXPECT_DOUBLE_EQ(sys.cluster(0).ecn1.bandwidth, 250);
  EXPECT_DOUBLE_EQ(sys.icn2().bandwidth, 500);
}

TEST(ConfigParser, CommentsAndWhitespaceIgnored) {
  const auto sys = ParseSystemConfig(
      "[system]\n  m = 4   # arity\nicn2=n\nmessage_flits=8\nflit_bytes=32\n"
      "[network n]\nbandwidth=100\nnetwork_latency=0\nswitch_latency=0\n"
      "[clusters]\nn=1\nicn1=n\necn1=n\n");
  EXPECT_EQ(sys.num_clusters(), 1);
}

struct BadCase {
  const char* name;
  const char* text;
  const char* expect;  // substring of the error message
};

class ConfigErrors : public ::testing::TestWithParam<BadCase> {};

TEST_P(ConfigErrors, RejectedWithDiagnostic) {
  try {
    ParseSystemConfig(GetParam().text);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(GetParam().expect),
              std::string::npos)
        << "actual: " << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConfigErrors,
    ::testing::Values(
        BadCase{"NoSystem",
                "[network n]\nbandwidth=1\nnetwork_latency=0\n"
                "switch_latency=0\n[clusters]\nn=1\nicn1=n\necn1=n\n",
                "missing [system]"},
        BadCase{"NoClusters",
                "[system]\nm=4\nicn2=n\nmessage_flits=8\nflit_bytes=32\n"
                "[network n]\nbandwidth=1\nnetwork_latency=0\n"
                "switch_latency=0\n",
                "no [clusters]"},
        BadCase{"UnknownSection", "[galaxy]\nx = 1\n", "unknown section"},
        BadCase{"UnnamedNetwork", "[network]\nbandwidth = 1\n", "needs a name"},
        BadCase{"KeyOutsideSection", "m = 4\n", "outside of any section"},
        BadCase{"MissingEquals", "[system]\nm 4\n", "expected 'key = value'"},
        BadCase{"DuplicateKey", "[system]\nm = 4\nm = 8\n", "duplicate key"},
        BadCase{"BadNumber",
                "[system]\nm = four\nicn2=n\nmessage_flits=8\nflit_bytes=32\n"
                "[network n]\nbandwidth=1\nnetwork_latency=0\n"
                "switch_latency=0\n[clusters]\nn=1\nicn1=n\necn1=n\n",
                "not a number"},
        // A number error names the key's own line, not the section's.
        BadCase{"BadNumberNamesItsLine",
                "[system]\nm = four\nicn2=n\nmessage_flits=8\nflit_bytes=32\n"
                "[network n]\nbandwidth=1\nnetwork_latency=0\n"
                "switch_latency=0\n[clusters]\nn=1\nicn1=n\necn1=n\n",
                "config line 2: 'm' is not a number"},
        // The cluster list is bounded before it is built: no ICN2 connects
        // more than 2^22 clusters, in one section or summed over several.
        BadCase{"OversizedClusterCount",
                "[system]\nm=4\nicn2=n\nmessage_flits=8\nflit_bytes=32\n"
                "[network n]\nbandwidth=1\nnetwork_latency=0\n"
                "switch_latency=0\n[clusters]\ncount=2000000000\nn=1\n"
                "icn1=n\necn1=n\n",
                "config line 11: count = 2000000000"},
        BadCase{"ClusterCountsSumPastTheBound",
                "[system]\nm=4\nicn2=n\nmessage_flits=8\nflit_bytes=32\n"
                "[network n]\nbandwidth=1\nnetwork_latency=0\n"
                "switch_latency=0\n[clusters]\nn=1\nicn1=n\necn1=n\n"
                "[clusters]\ncount=4194304\nn=1\nicn1=n\necn1=n\n",
                "count = 4194304 makes 4194305 clusters"},
        // So is the ICN2 those clusters resolve: 2^22 clusters need a
        // 2^23-slot 8-port tree, refused before either section's 2^21
        // clusters are listed (the list alone took 932 MB).
        BadCase{"ClusterCountsOverflowTheIcn2",
                "[system]\nm=8\nicn2=n\nmessage_flits=8\nflit_bytes=32\n"
                "[network n]\nbandwidth=1\nnetwork_latency=0\n"
                "switch_latency=0\n[clusters]\ncount=2097152\nn=1\n"
                "icn1=n\necn1=n\n[clusters]\ncount=2097152\nn=1\n"
                "icn1=n\necn1=n\n",
                "config line 16: count = 2097152 makes 4194304 clusters, "
                "which the ICN2 cannot hold: tree too large"},
        BadCase{"ClusterCountsOverflowAnExplicitIcn2",
                "[system]\nm=4\nicn2=n\nmessage_flits=8\nflit_bytes=32\n"
                "icn2_topology=crossbar:4\n"
                "[network n]\nbandwidth=1\nnetwork_latency=0\n"
                "switch_latency=0\n[clusters]\ncount=3\nn=1\nicn1=n\n"
                "ecn1=n\n[clusters]\ncount=3\nn=1\nicn1=n\necn1=n\n",
                "config line 17: count = 3 makes 6 clusters, which the ICN2 "
                "cannot hold: ICN2 topology crossbar 4 has only 4 slots"},
        BadCase{"OddSwitchArityNamesItsLine",
                "[system]\nm=5\nicn2=n\nmessage_flits=8\nflit_bytes=32\n"
                "[network n]\nbandwidth=1\nnetwork_latency=0\n"
                "switch_latency=0\n[clusters]\nn=1\nicn1=n\necn1=n\n",
                "config line 2: switch arity m must be even and >= 4"},
        // Every section kind reads a fixed list of keys; a key none of
        // them reads fails at its own line, not silently ignored.
        BadCase{"UnknownSystemKeyNamesItsLine",
                "[system]\nm=4\nicn2=n\nmessage_flits=8\nflit_bytes=32\n"
                "icn2_topolgy=crossbar\n[network n]\nbandwidth=1\n"
                "network_latency=0\nswitch_latency=0\n[clusters]\nn=1\n"
                "icn1=n\necn1=n\n",
                "config line 6: unknown key 'icn2_topolgy' in [system] (did "
                "you mean 'icn2_topology'?)"},
        BadCase{"UnknownNetworkKeyNamesItsLine",
                "[system]\nm=4\nicn2=n\nmessage_flits=8\nflit_bytes=32\n"
                "[network n]\nbandwith=1\nnetwork_latency=0\n"
                "switch_latency=0\n[clusters]\nn=1\nicn1=n\necn1=n\n",
                "config line 7: unknown key 'bandwith' in [network n] (did "
                "you mean 'bandwidth'?)"},
        BadCase{"UnknownClustersKeyNamesItsLine",
                "[system]\nm=4\nicn2=n\nmessage_flits=8\nflit_bytes=32\n"
                "[network n]\nbandwidth=1\nnetwork_latency=0\n"
                "switch_latency=0\n[clusters]\ncout=12\nn=1\nicn1=n\n"
                "ecn1=n\n",
                "config line 11: unknown key 'cout' in [clusters] (did you "
                "mean 'count'?)"},
        BadCase{"UnknownNetworkRef",
                "[system]\nm=4\nicn2=ghost\nmessage_flits=8\nflit_bytes=32\n"
                "[network n]\nbandwidth=1\nnetwork_latency=0\n"
                "switch_latency=0\n[clusters]\nn=1\nicn1=n\necn1=n\n",
                "unknown network 'ghost'"},
        BadCase{"UnterminatedHeader", "[system\nm = 4\n", "unterminated"},
        BadCase{"NonIntegerFlits",
                "[system]\nm=4\nicn2=n\nmessage_flits=8.5\nflit_bytes=32\n"
                "[network n]\nbandwidth=1\nnetwork_latency=0\n"
                "switch_latency=0\n[clusters]\nn=1\nicn1=n\necn1=n\n",
                "must be an integer"},
        // A whole number in exponent form is still not an integer token.
        BadCase{"ExponentFlits",
                "[system]\nm=4\nicn2=n\nmessage_flits=1e1\nflit_bytes=32\n"
                "[network n]\nbandwidth=1\nnetwork_latency=0\n"
                "switch_latency=0\n[clusters]\nn=1\nicn1=n\necn1=n\n",
                "must be an integer"}),
    [](const ::testing::TestParamInfo<BadCase>& info) {
      return info.param.name;
    });

TEST(ConfigParser, PresetsLoad) {
  EXPECT_EQ(LoadSystem("preset:1120").TotalNodes(), 1120);
  EXPECT_EQ(LoadSystem("preset:544").TotalNodes(), 544);
  EXPECT_EQ(LoadSystem("preset:small").num_clusters(), 8);
  EXPECT_EQ(LoadSystem("preset:tiny").num_clusters(), 4);
  EXPECT_EQ(LoadSystem("preset:dragonfly").TotalNodes(), 48);
  const auto custom = LoadSystem("preset:1120:64:512");
  EXPECT_EQ(custom.message().length_flits, 64);
  EXPECT_DOUBLE_EQ(custom.message().flit_bytes, 512);
  EXPECT_THROW(LoadSystem("preset:bogus"), std::invalid_argument);
  EXPECT_THROW(LoadSystem("/no/such/file.conf"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Command layer.

struct CliRun {
  int code;
  std::string out;
  std::string err;
};

CliRun RunCommand(std::vector<std::string> args) {
  std::ostringstream out, err;
  const int code = RunCli(args, out, err);
  return {code, out.str(), err.str()};
}

TEST(Cli, NoArgsPrintsUsage) {
  const auto r = RunCommand({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownCommandIsUsageError) {
  const auto r = RunCommand({"frobnicate", "preset:tiny"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, InfoPrintsOrganization) {
  const auto r = RunCommand({"info", "preset:544"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("nodes: 544"), std::string::npos);
  EXPECT_NE(r.out.find("U^(i)"), std::string::npos);
}

TEST(Cli, ModelReportsLatencyAndSaturation) {
  const auto r = RunCommand({"model", "preset:tiny:16:64", "--rate", "1e-4"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("mean latency:"), std::string::npos);
  EXPECT_NE(r.out.find("saturation rate:"), std::string::npos);
}

TEST(Cli, ModelWithLocalityExtension) {
  const auto base = RunCommand({"model", "preset:tiny:16:64", "--rate", "1e-4"});
  const auto local = RunCommand({"model", "preset:tiny:16:64", "--rate", "1e-4",
                          "--locality", "0.9"});
  EXPECT_EQ(local.code, 0) << local.err;
  EXPECT_NE(base.out, local.out);
}

TEST(Cli, LocalityWithExplicitLocalPatternIsConsistent) {
  // --pattern local --locality P is the one legal combination: both flags
  // describe the same workload.
  const auto r = RunCommand({"model", "preset:tiny:16:64", "--rate", "1e-4",
                             "--pattern", "local", "--locality", "0.9"});
  EXPECT_EQ(r.code, 0) << r.err;
  const auto implicit = RunCommand({"model", "preset:tiny:16:64", "--rate",
                                    "1e-4", "--locality", "0.9"});
  EXPECT_EQ(r.out, implicit.out);
}

TEST(Cli, LocalityConflictingWithExplicitPatternIsAHardError) {
  // The old shim silently overwrote --pattern hotspot with the local
  // pattern; the combination must fail loudly instead.
  const auto r = RunCommand({"model", "preset:tiny:16:64", "--rate", "1e-4",
                             "--pattern", "hotspot", "--locality", "0.6"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--locality"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("--pattern hotspot"), std::string::npos) << r.err;
  const auto perm = RunCommand({"sim", "preset:tiny:16:64", "--rate", "1e-4",
                                "--messages", "500", "--pattern",
                                "permutation", "--locality", "0.6"});
  EXPECT_EQ(perm.code, 1);
  const auto hf = RunCommand({"model", "preset:tiny:16:64", "--rate", "1e-4",
                              "--locality", "0.6", "--hotspot-fraction",
                              "0.2"});
  EXPECT_EQ(hf.code, 1);
  EXPECT_NE(hf.err.find("--locality"), std::string::npos) << hf.err;
  // Symmetric direction: --hotspot-fraction against an explicit non-hotspot
  // pattern fails too.
  const auto hp = RunCommand({"model", "preset:tiny:16:64", "--rate", "1e-4",
                              "--pattern", "local", "--hotspot-fraction",
                              "0.2"});
  EXPECT_EQ(hp.code, 1);
  EXPECT_NE(hp.err.find("--hotspot-fraction"), std::string::npos) << hp.err;
}

TEST(Cli, HotspotNodeConflictingWithExplicitPatternIsAHardError) {
  // Mirrors the --hotspot-fraction guard: --pattern uniform --hotspot-node
  // must not silently convert the run to a hotspot workload.
  const auto r = RunCommand({"model", "preset:tiny:16:64", "--rate", "1e-4",
                             "--pattern", "uniform", "--hotspot-node", "5"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--hotspot-node"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("--pattern uniform"), std::string::npos) << r.err;
  const auto ok = RunCommand({"model", "preset:tiny:16:64", "--rate", "1e-4",
                              "--pattern", "hotspot", "--hotspot-node", "5"});
  EXPECT_EQ(ok.code, 0) << ok.err;
}

TEST(Cli, HotspotNodeOutOfRangeNamesTheFlag) {
  // preset:tiny has 32 nodes; the range failure must surface at flag level
  // (naming --hotspot-node), not from deep inside the model.
  const auto r = RunCommand({"model", "preset:tiny:16:64", "--rate", "1e-4",
                             "--hotspot-node", "999"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--hotspot-node 999"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("outside [0, 32)"), std::string::npos) << r.err;
  const auto ok = RunCommand({"model", "preset:tiny:16:64", "--rate", "1e-4",
                              "--hotspot-node", "31"});
  EXPECT_EQ(ok.code, 0) << ok.err;
}

TEST(Cli, PermutationModelOutputCarriesTheApproximationNote) {
  // The model treats permutation by its uniform marginal; model and
  // bottleneck output must say so in one line, and only for permutation.
  const auto model = RunCommand({"model", "preset:tiny:16:64", "--rate",
                                 "1e-4", "--pattern", "permutation"});
  EXPECT_EQ(model.code, 0) << model.err;
  EXPECT_NE(model.out.find("uniform destination marginal"),
            std::string::npos)
      << model.out;
  const auto bottleneck = RunCommand({"bottleneck", "preset:tiny:16:64",
                                      "--rate", "1e-4", "--pattern",
                                      "permutation"});
  EXPECT_EQ(bottleneck.code, 0) << bottleneck.err;
  EXPECT_NE(bottleneck.out.find("uniform destination marginal"),
            std::string::npos);
  const auto uniform = RunCommand({"model", "preset:tiny:16:64", "--rate",
                                   "1e-4"});
  EXPECT_EQ(uniform.out.find("uniform destination marginal"),
            std::string::npos);
}

TEST(Cli, ModelMissingRateFails) {
  const auto r = RunCommand({"model", "preset:tiny"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--rate"), std::string::npos);
}

TEST(Cli, UnknownFlagRejected) {
  const auto r = RunCommand({"model", "preset:tiny", "--rate", "1e-4", "--bogus"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown flag --bogus"), std::string::npos);
}

TEST(Cli, SimRunsAndReportsUtilization) {
  const auto r = RunCommand({"sim", "preset:tiny:8:32", "--rate", "1e-4",
                      "--messages", "2000", "--seed", "3"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("delivered"), std::string::npos);
  EXPECT_NE(r.out.find("utilization"), std::string::npos);
}

TEST(Cli, SimPatternAndCondisFlags) {
  for (const char* pattern : {"uniform", "hotspot", "local", "permutation"}) {
    const auto r = RunCommand({"sim", "preset:tiny:8:32", "--rate", "1e-4",
                        "--messages", "1000", "--pattern", pattern});
    EXPECT_EQ(r.code, 0) << pattern << ": " << r.err;
  }
  const auto sf = RunCommand({"sim", "preset:tiny:8:32", "--rate", "1e-4",
                       "--messages", "1000", "--condis", "store-forward"});
  EXPECT_EQ(sf.code, 0) << sf.err;
  const auto bad = RunCommand({"sim", "preset:tiny:8:32", "--rate", "1e-4",
                        "--pattern", "zipf"});
  EXPECT_EQ(bad.code, 1);
}

TEST(Cli, DragonflyPresetAndIcn2OverrideRunEndToEnd) {
  const auto info = RunCommand({"info", "preset:dragonfly:16:64"});
  EXPECT_EQ(info.code, 0) << info.err;
  EXPECT_NE(info.out.find("dragonfly 2,2,1"), std::string::npos) << info.out;
  EXPECT_NE(info.out.find("dragonfly 2,2,1 (valiant)"), std::string::npos);
  const auto sim = RunCommand({"sim", "preset:dragonfly:8:32", "--rate",
                               "1e-4", "--messages", "1000"});
  EXPECT_EQ(sim.code, 0) << sim.err;
  const auto icn2 = RunCommand({"model", "preset:tiny:16:64", "--rate",
                                "1e-4", "--icn2-topology",
                                "dragonfly:2,1,1,routing=valiant"});
  EXPECT_EQ(icn2.code, 0) << icn2.err;
}

TEST(Cli, SweepEmitsTableAndPlot) {
  const auto r = RunCommand({"sweep", "preset:tiny:8:32", "--max-rate", "1e-3",
                      "--points", "3", "--no-sim"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("analysis"), std::string::npos);
  EXPECT_NE(r.out.find("lambda_g"), std::string::npos);
}

TEST(Cli, SweepWorkloadDialEmitsGridTable) {
  const auto r = RunCommand({"sweep", "preset:tiny:8:32", "--max-rate", "1e-3",
                             "--points", "2", "--sweep-locality",
                             "0.2:0.8:0.3"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("workload-dial sweep (locality)"), std::string::npos);
  EXPECT_NE(r.out.find("sat_rate"), std::string::npos);
  EXPECT_NE(r.out.find("0.2"), std::string::npos);
  EXPECT_NE(r.out.find("0.8"), std::string::npos);
}

TEST(Cli, SweepWorkloadDialCsvIsLongForm) {
  const auto r = RunCommand({"sweep", "preset:tiny:8:32", "--max-rate", "1e-3",
                             "--points", "2", "--sweep-rate-scale",
                             "0.5:1.5:0.5", "--dial-cluster", "1", "--format",
                             "csv"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("dial,dial_value,lambda_g"), std::string::npos);
  EXPECT_NE(r.out.find("rate_scale"), std::string::npos);
}

TEST(Cli, SweepWorkloadDialRejectsBadGridsAndCombos) {
  // Malformed grid.
  auto r = RunCommand({"sweep", "preset:tiny:8:32", "--max-rate", "1e-3",
                       "--sweep-locality", "0.2:0.8"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("LO:HI:STEP"), std::string::npos);
  // Two dial flags at once.
  r = RunCommand({"sweep", "preset:tiny:8:32", "--max-rate", "1e-3",
                  "--sweep-locality", "0.2:0.8:0.3", "--sweep-rate-scale",
                  "0.5:1.5:0.5"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("at most one"), std::string::npos);
  // --dial-cluster without a dial.
  r = RunCommand({"sweep", "preset:tiny:8:32", "--max-rate", "1e-3",
                  "--points", "2", "--no-sim", "--dial-cluster", "1"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--dial-cluster requires"), std::string::npos);
  // JSON is not a dial-sweep encoding.
  r = RunCommand({"sweep", "preset:tiny:8:32", "--max-rate", "1e-3",
                  "--sweep-locality", "0.2:0.8:0.3", "--format", "json"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("text or csv"), std::string::npos);
  // Oversized grids are counted before anything is built: 10^12 dial
  // values, and a rate grid of 2*10^9 points (dial and plain sweeps).
  r = RunCommand({"sweep", "preset:tiny:8:32", "--max-rate", "1e-3",
                  "--sweep-locality", "0:1:1e-12"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--sweep-locality: grid '0:1:1e-12' has more than "
                       "1024 points"),
            std::string::npos)
      << r.err;
  // A workload flag that contradicts the dial fails as it does in `model`
  // (exit 1, the same message), never silently overridden by the dial.
  const struct {
    std::vector<std::string> flags;
    const char* expect;
  } combos[] = {
      {{"--pattern", "hotspot", "--sweep-locality", "0.2:0.8:0.3"},
       "--locality implies --pattern local and cannot be combined with "
       "--pattern hotspot"},
      {{"--hotspot-fraction", "0.1", "--sweep-locality", "0.2:0.8:0.3"},
       "--locality cannot be combined with --hotspot-fraction"},
      {{"--locality", "0.6", "--sweep-hotspot-fraction", "0.02:0.08:0.03"},
       "--locality cannot be combined with --hotspot-fraction"},
      {{"--pattern", "local", "--sweep-hotspot-fraction", "0.02:0.08:0.03"},
       "--hotspot-fraction implies --pattern hotspot and cannot be combined "
       "with --pattern local"},
  };
  for (const auto& c : combos) {
    std::vector<std::string> args = {"sweep", "preset:tiny", "--max-rate",
                                     "1e-3", "--points", "2"};
    args.insert(args.end(), c.flags.begin(), c.flags.end());
    r = RunCommand(args);
    EXPECT_EQ(r.code, 1) << c.expect;
    EXPECT_NE(r.err.find(c.expect), std::string::npos) << r.err;
  }
  for (const bool with_dial : {true, false}) {
    std::vector<std::string> args = {"sweep", "preset:tiny:8:32",
                                     "--max-rate", "1e-3", "--no-sim",
                                     "--points", "2000000000"};
    if (with_dial) {
      args.insert(args.end(), {"--sweep-locality", "0.2:0.8:0.3"});
    }
    r = RunCommand(args);
    EXPECT_EQ(r.code, 2) << with_dial;
    EXPECT_NE(r.err.find("--points must be <= 1024"), std::string::npos)
        << r.err;
  }
}

TEST(Cli, OversizedSimIsRejectedNamingTheChannelCount) {
  // mesh:2x22 has 2^22 routers and 100,663,552 channels: a model-only run
  // needs none of them, a simulation would hold state for each.
  const auto model = RunCommand({"model", "preset:tiny", "--rate", "1e-4",
                                 "--icn2-topology", "mesh:2x22"});
  EXPECT_EQ(model.code, 0) << model.err;
  const auto sim =
      RunCommand({"sim", "preset:tiny", "--rate", "1e-4", "--messages",
                  "100", "--icn2-topology", "mesh:2x22"});
  EXPECT_EQ(sim.code, 1);
  EXPECT_NE(sim.err.find("100663552 channels (> 2^23)"), std::string::npos)
      << sim.err;
}

TEST(Cli, OversizedMessageCountIsRejectedNamingTheBound) {
  const auto sim = RunCommand({"sim", "preset:tiny", "--rate", "1e-4",
                               "--messages", "1000000000000"});
  EXPECT_EQ(sim.code, 1);
  EXPECT_NE(sim.err.find("cannot simulate 1000000000000 messages (allowed: "
                         "0 to 2^20)"),
            std::string::npos)
      << sim.err;
}

TEST(Cli, BottleneckNamesBindingResource) {
  const auto r = RunCommand({"bottleneck", "preset:1120", "--rate", "1e-4"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("binding resource: concentrator/dispatcher"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Exact-text pins: the Scenario/Engine facade must reproduce the pre-facade
// command output byte for byte. Captured from the pre-refactor binary.

TEST(Cli, ModelTextOutputIsBytePinned) {
  const auto r = RunCommand({"model", "preset:tiny:16:64", "--rate", "1e-4"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out,
            "lambda_g = 1.00e-04  (workload: uniform)\n"
            "mean latency: 4.96 us\n"
            "cluster  U^(i)  L_in  W_in  L_out  W_d   blended\n"
            "------------------------------------------------\n"
            "0        0.774  2.85  0     5.58   0.01  4.96\n"
            "1        0.774  2.85  0     5.58   0.01  4.96\n"
            "2        0.774  2.85  0     5.58   0.01  4.96\n"
            "3        0.774  2.85  0     5.58   0.01  4.96\n"
            "saturation rate: 6.82e-02\n");
}

TEST(Cli, BottleneckTextOutputIsBytePinned) {
  const auto r =
      RunCommand({"bottleneck", "preset:tiny:16:64", "--rate", "1e-4"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out,
            "resource                    utilization\n"
            "---------------------------------------\n"
            "concentrator/dispatcher     0.0015\n"
            "inter-cluster source queue  0.0003\n"
            "intra-cluster source queue  0.0001\n"
            "binding resource: concentrator/dispatcher\n"
            "saturation rate: 6.82e-02\n");
}

TEST(Cli, SimTextOutputIsBytePinned) {
  const auto r = RunCommand({"sim", "preset:tiny:8:32", "--rate", "1e-4",
                             "--messages", "1000", "--seed", "3"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out,
            "workload: uniform\n"
            "delivered 1200 messages over 367416.9 us simulated time\n"
            "mean latency: 1.51 +/- 0.02 us  (min 0.62, max 2.01)\n"
            "intra: 0.84 us (233 msgs), inter: 1.72 us (767 msgs)\n"
            "utilization (mean/max): ICN1 0/0, ECN1 0/0, ICN2 0/0\n");
}

TEST(Cli, SweepTextOutputMatchesHarnessFormatting) {
  // The sweep command's text mode is exactly the harness's table + plot for
  // the same spec (this is what the pre-facade CmdSweep emitted).
  const auto r = RunCommand({"sweep", "preset:tiny:16:64", "--max-rate",
                             "1e-3", "--points", "3", "--no-sim"});
  EXPECT_EQ(r.code, 0) << r.err;
  SweepSpec spec;
  spec.rates = LinearRates(1e-3, 3);
  spec.run_sim = false;
  const auto pts = RunSweepParallel(LoadSystem("preset:tiny:16:64"), spec);
  EXPECT_EQ(r.out,
            FormatSweepTable("mean message latency (us), workload: uniform",
                             pts) +
                FormatSweepPlot("analysis vs simulation", pts));
}

// ---------------------------------------------------------------------------
// --format encodings.

TEST(Cli, FormatJsonEmitsSchemaVersionedReports) {
  const struct {
    std::vector<std::string> args;
    const char* analysis_key;
  } cases[] = {
      {{"model", "preset:tiny:16:64", "--rate", "1e-4", "--format", "json"},
       "model"},
      {{"bottleneck", "preset:tiny:16:64", "--rate", "1e-4", "--format",
        "json"},
       "bottleneck"},
      {{"sweep", "preset:tiny:16:64", "--max-rate", "1e-3", "--points", "2",
        "--no-sim", "--format", "json"},
       "sweep"},
      {{"sim", "preset:tiny:8:32", "--rate", "1e-4", "--messages", "500",
        "--format", "json"},
       "sim"},
  };
  for (const auto& c : cases) {
    const auto r = RunCommand(c.args);
    ASSERT_EQ(r.code, 0) << c.analysis_key << ": " << r.err;
    const Json doc = Json::Parse(r.out);
    ASSERT_NE(doc.Find("schema_version"), nullptr) << c.analysis_key;
    EXPECT_NE(doc.Find(c.analysis_key), nullptr) << c.analysis_key;
  }
}

TEST(Cli, FormatJsonAndTextAgreeOnTheModelNumbers) {
  const auto text =
      RunCommand({"model", "preset:tiny:16:64", "--rate", "1e-4"});
  const auto json = RunCommand(
      {"model", "preset:tiny:16:64", "--rate", "1e-4", "--format", "json"});
  const Json doc = Json::Parse(json.out);
  const double mean = doc.Find("model")->Find("mean_latency_us")->AsDouble();
  EXPECT_NEAR(mean, 4.96, 0.005);
  EXPECT_NE(text.out.find("mean latency: 4.96 us"), std::string::npos);
}

TEST(Cli, FormatCsvEmitsOneCsvTable) {
  const auto sweep =
      RunCommand({"sweep", "preset:tiny:16:64", "--max-rate", "1e-3",
                  "--points", "2", "--no-sim", "--format", "csv"});
  EXPECT_EQ(sweep.code, 0) << sweep.err;
  EXPECT_EQ(sweep.out.find("lambda_g,analysis"), 0u) << sweep.out;
  const auto model = RunCommand({"model", "preset:tiny:16:64", "--rate",
                                 "1e-4", "--format", "csv"});
  EXPECT_EQ(model.out.find("cluster,u,l_in"), 0u) << model.out;
  const auto bn = RunCommand({"bottleneck", "preset:tiny:16:64", "--rate",
                              "1e-4", "--format", "csv"});
  EXPECT_EQ(bn.out.find("resource,utilization"), 0u) << bn.out;
  const auto sim = RunCommand({"sim", "preset:tiny:8:32", "--rate", "1e-4",
                               "--messages", "500", "--format", "csv"});
  EXPECT_EQ(sim.out.find("rate,seed,delivered"), 0u) << sim.out;
}

TEST(Cli, UnknownFormatIsUsageError) {
  const auto r = RunCommand({"model", "preset:tiny:16:64", "--rate", "1e-4",
                             "--format", "yaml"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--format"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Usage-error validation: malformed invocations exit 2, not 1, and never
// silently produce an empty result.

TEST(Cli, SweepRejectsNonPositivePointsAsUsageError) {
  for (const char* points : {"0", "-3"}) {
    const auto r = RunCommand({"sweep", "preset:tiny:16:64", "--max-rate",
                               "1e-3", "--points", points, "--no-sim"});
    EXPECT_EQ(r.code, 2) << points;
    EXPECT_NE(r.err.find("--points must be >= 1"), std::string::npos)
        << r.err;
  }
}

TEST(Cli, SweepRejectsNonPositiveMaxRateAsUsageError) {
  for (const char* rate : {"0", "-1e-3"}) {
    const auto r = RunCommand({"sweep", "preset:tiny:16:64", "--max-rate",
                               rate, "--points", "3", "--no-sim"});
    EXPECT_EQ(r.code, 2) << rate;
    EXPECT_NE(r.err.find("--max-rate must be > 0"), std::string::npos)
        << r.err;
  }
}

TEST(Cli, NonPositiveRateIsUsageErrorNamingTheFlag) {
  for (const char* cmd : {"model", "sim", "bottleneck"}) {
    const auto r = RunCommand({cmd, "preset:tiny:16:64", "--rate", "0"});
    EXPECT_EQ(r.code, 2) << cmd;
    EXPECT_NE(r.err.find("--rate must be > 0"), std::string::npos)
        << cmd << ": " << r.err;
  }
}

TEST(Cli, NonPositiveThreadsIsUsageErrorAcrossCommands) {
  const auto sweep = RunCommand({"sweep", "preset:tiny:16:64", "--max-rate",
                                 "1e-3", "--no-sim", "--threads", "-2"});
  EXPECT_EQ(sweep.code, 2);
  EXPECT_NE(sweep.err.find("--threads must be >= 1"), std::string::npos);
  const auto batch =
      RunCommand({"batch", "/no/such/batch.cfg", "--threads", "0"});
  EXPECT_EQ(batch.code, 2);
  EXPECT_NE(batch.err.find("--threads must be >= 1"), std::string::npos);
}

TEST(Cli, MalformedNumericFlagsAreUsageErrorsNamingTheFlag) {
  // Each of these once ran as a different number: trailing garbage was
  // dropped, or an integer flag truncated its fraction.
  const struct {
    std::vector<std::string> args;
    const char* flag;
  } cases[] = {
      {{"model", "preset:tiny", "--rate", "1e-4x"}, "--rate"},
      {{"sweep", "preset:tiny", "--max-rate", "1e-3", "--no-sim", "--points",
        "3.7"},
       "--points"},
      {{"sim", "preset:tiny:8:32", "--rate", "1e-4", "--messages", "500.9"},
       "--messages"},
      {{"sweep", "preset:tiny", "--max-rate", "1e-3", "--no-sim", "--threads",
        "2.5"},
       "--threads"},
      {{"model", "preset:tiny", "--rate", "1e-4", "--hotspot-node", "3.5"},
       "--hotspot-node"},
      {{"sim", "preset:tiny:8:32", "--rate", "1e-4", "--seed", "-1"},
       "--seed"},
      {{"serve", "--port", "1.5"}, "--port"},
      // Doubles: decimal and finite only, by the same rule as integers.
      {{"model", "preset:tiny", "--rate", " +1e-4"}, "--rate"},
      {{"model", "preset:tiny", "--rate", "0x1p-13"}, "--rate"},
      {{"model", "preset:tiny", "--rate", "inf"}, "--rate"},
      // An infinite grid has no end to enumerate.
      {{"sweep", "preset:tiny", "--max-rate", "1e-4", "--sweep-locality",
        "0:inf:0.1"},
       "--sweep-locality"},
  };
  for (const auto& c : cases) {
    const auto r = RunCommand(c.args);
    EXPECT_EQ(r.code, 2) << c.flag << ": " << r.err;
    EXPECT_NE(r.err.find(c.flag), std::string::npos) << r.err;
  }
}

TEST(Cli, SeedFlagParsesFullWidthLikeTheScenarioKey) {
  // 2^53 + 1: a parse through a double would run seed 2^53 instead.
  const auto r = RunCommand({"sim", "preset:tiny:8:32", "--rate", "1e-4",
                             "--messages", "100", "--seed", "9007199254740993",
                             "--format", "csv"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find(",9007199254740993,"), std::string::npos) << r.out;
}

TEST(Cli, MalformedPresetSpecifierIsNamedInTheError) {
  for (const char* spec :
       {"preset:tiny:16x:64", "preset:tiny:abc:64", "preset:tiny:16:64z"}) {
    const auto r = RunCommand({"model", spec, "--rate", "1e-4"});
    EXPECT_EQ(r.code, 1) << spec;
    EXPECT_NE(r.err.find(std::string("preset '") + spec + "'"),
              std::string::npos)
        << r.err;
  }
}

// ---------------------------------------------------------------------------
// The batch service path.

constexpr const char* kBatchScenarios = R"(
[scenario first]
system = preset:tiny:16:64
analyses = model,saturation
rate = 1e-4

[scenario second]
system = preset:tiny:8:32
analyses = sim
rate = 1e-4
sim.messages = 300
)";

std::string WriteTempFile(const std::string& name, const std::string& text) {
  const std::string path = "/tmp/" + name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  std::fputs(text.c_str(), f);
  std::fclose(f);
  return path;
}

TEST(Cli, BatchEvaluatesScenarioFileDeterministically) {
  const std::string path =
      WriteTempFile("coc_cli_test_batch.cfg", kBatchScenarios);
  const auto json1 =
      RunCommand({"batch", path, "--threads", "1", "--format", "json"});
  ASSERT_EQ(json1.code, 0) << json1.err;
  const auto json4 =
      RunCommand({"batch", path, "--threads", "4", "--format", "json"});
  EXPECT_EQ(json4.out, json1.out);  // bit-identical for any worker count
  const Json doc = Json::Parse(json1.out);
  EXPECT_NE(doc.Find("schema_version"), nullptr);
  ASSERT_EQ(doc.Find("reports")->Size(), 2u);
  EXPECT_EQ(doc.Find("reports")->At(0).Find("scenario")->AsString(), "first");
  const auto text = RunCommand({"batch", path, "--threads", "2"});
  EXPECT_EQ(text.code, 0) << text.err;
  EXPECT_NE(text.out.find("=== scenario first"), std::string::npos);
  EXPECT_NE(text.out.find("=== scenario second"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, BatchRejectsBadInputs) {
  // A missing/unreadable file is a usage error (exit 2) whose message
  // carries the errno reason.
  const auto missing = RunCommand({"batch", "/no/such/batch.cfg"});
  EXPECT_EQ(missing.code, 2);
  EXPECT_NE(missing.err.find("cannot open scenario file"), std::string::npos);
  EXPECT_NE(missing.err.find("No such file or directory"), std::string::npos)
      << missing.err;
  // A malformed scenario inside the file still fails the load (exit 1):
  // per-scenario isolation starts at evaluation, not at a torn parse.
  const std::string path = WriteTempFile("coc_cli_test_bad_batch.cfg",
                                         "[scenario x]\nrate = 1e-4\n");
  const auto bad = RunCommand({"batch", path});
  EXPECT_EQ(bad.code, 1);
  EXPECT_NE(bad.err.find("missing 'system'"), std::string::npos) << bad.err;
  std::remove(path.c_str());
}

TEST(Cli, BatchFormatCsvProjectsOneRowPerScenario) {
  const std::string path =
      WriteTempFile("coc_cli_test_batch_csv.cfg", kBatchScenarios);
  const auto csv =
      RunCommand({"batch", path, "--threads", "2", "--format", "csv"});
  ASSERT_EQ(csv.code, 0) << csv.err;
  EXPECT_EQ(csv.out.substr(0, csv.out.find('\n')),
            "scenario,status,workload,model_mean_latency_us,"
            "saturation_rate,binding,sweep_points,sim_mean_us,sim_delivered");
  EXPECT_NE(csv.out.find("\nfirst,ok,"), std::string::npos) << csv.out;
  EXPECT_NE(csv.out.find("\nsecond,ok,"), std::string::npos) << csv.out;
  // Deterministic like the other formats: worker count cannot change bytes.
  const auto again =
      RunCommand({"batch", path, "--threads", "1", "--format", "csv"});
  EXPECT_EQ(again.out, csv.out);
  std::remove(path.c_str());
}

TEST(Cli, ServeAndSubmitValidateFlags) {
  const auto badport = RunCommand({"serve", "--port", "70000"});
  EXPECT_EQ(badport.code, 2);
  EXPECT_NE(badport.err.find("--port expects an integer in [0, 65535]"),
            std::string::npos)
      << badport.err;
  const auto badqueue =
      RunCommand({"serve", "--port", "0", "--max-queue", "0"});
  EXPECT_EQ(badqueue.code, 2);
  EXPECT_NE(badqueue.err.find("--max-queue expects an integer >= 1"),
            std::string::npos);
  const auto badcache =
      RunCommand({"serve", "--port", "0", "--cache-entries", "-1"});
  EXPECT_EQ(badcache.code, 2);
  EXPECT_NE(badcache.err.find("--cache-entries expects an integer >= 0"),
            std::string::npos);
  const auto nofile = RunCommand({"submit", "--port", "1"});
  EXPECT_EQ(nofile.code, 2);
  EXPECT_NE(nofile.err.find("submit needs a <scenario-file>"),
            std::string::npos);
  const auto badfmt =
      RunCommand({"submit", "x.cfg", "--port", "1", "--format", "csv"});
  EXPECT_EQ(badfmt.code, 2);
  EXPECT_NE(badfmt.err.find("submit supports --format text or json"),
            std::string::npos);
}

TEST(Cli, SubmitConnectionRefusedExitsOne) {
  const std::string path =
      WriteTempFile("coc_cli_test_submit_refused.cfg", kBatchScenarios);
  // Port 1 is closed on a loopback-only test host, so connect fails fast.
  const auto r = RunCommand({"submit", path, "--port", "1"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("cannot connect"), std::string::npos) << r.err;
  std::remove(path.c_str());
}

TEST(Cli, BatchPartialFailureExitsThreeWithCompleteEnvelope) {
  // One unloadable system among good scenarios: the batch completes, the
  // JSON envelope holds every report (the broken one as a status record),
  // and the exit code is 3 so scripts can tell partial from clean.
  const std::string path = WriteTempFile(
      "coc_cli_test_partial_batch.cfg",
      "[scenario ok1]\nsystem = preset:tiny:16:64\nanalyses = model\n"
      "rate = 1e-4\n\n"
      "[scenario broken]\nsystem = /no/such/system.conf\nanalyses = model\n"
      "rate = 1e-4\n\n"
      "[scenario ok2]\nsystem = preset:tiny:16:64\nanalyses = saturation\n"
      "rate = 1e-4\n");
  const auto r = RunCommand({"batch", path, "--format", "json",
                             "--threads", "2"});
  EXPECT_EQ(r.code, 3) << r.err;
  const Json doc = Json::Parse(r.out);
  const Json* reports = doc.Find("reports");
  ASSERT_NE(reports, nullptr);
  ASSERT_EQ(reports->Size(), 3u);
  EXPECT_TRUE(reports->At(0).Find("status")->Find("ok")->AsBool());
  EXPECT_FALSE(reports->At(1).Find("status")->Find("ok")->AsBool());
  EXPECT_EQ(reports->At(1).Find("status")->Find("code")->AsString(),
            "scenario_error");
  EXPECT_TRUE(reports->At(2).Find("status")->Find("ok")->AsBool());
  // Text mode prints the failure under the scenario header; exit still 3.
  const auto text = RunCommand({"batch", path, "--threads", "1"});
  EXPECT_EQ(text.code, 3);
  EXPECT_NE(text.out.find("status: scenario_error:"), std::string::npos)
      << text.out;
  // --fail-fast restores abort semantics: exit 1, error on stderr.
  const auto ff = RunCommand({"batch", path, "--fail-fast"});
  EXPECT_EQ(ff.code, 1);
  EXPECT_NE(ff.err.find("error:"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, DeadlineFlagValidatedAcrossCommands) {
  for (const char* cmd : {"model", "sim", "bottleneck"}) {
    const auto r = RunCommand({cmd, "preset:tiny", "--rate", "1e-4",
                               "--deadline-ms", "0"});
    EXPECT_EQ(r.code, 2) << cmd;
    EXPECT_NE(r.err.find("--deadline-ms must be > 0"), std::string::npos)
        << cmd;
  }
  const auto sweep = RunCommand({"sweep", "preset:tiny", "--max-rate", "1e-3",
                                 "--deadline-ms", "-5"});
  EXPECT_EQ(sweep.code, 2);
  const auto batch = RunCommand({"batch", "/no/such.cfg",
                                 "--deadline-ms", "0"});
  EXPECT_EQ(batch.code, 2);  // flag validated before the file loads
  EXPECT_NE(batch.err.find("--deadline-ms must be > 0"), std::string::npos);
  // A generous deadline changes nothing about the result.
  const auto ok = RunCommand({"model", "preset:tiny", "--rate", "1e-4",
                              "--deadline-ms", "60000"});
  EXPECT_EQ(ok.code, 0) << ok.err;
  EXPECT_NE(ok.out.find("mean latency:"), std::string::npos);
}

TEST(Cli, SweepAbortLatencyFlagValidated) {
  const auto bad = RunCommand({"sweep", "preset:tiny", "--max-rate", "1e-3",
                               "--sim-abort-latency", "0"});
  EXPECT_EQ(bad.code, 2);
  EXPECT_NE(bad.err.find("--sim-abort-latency must be > 0"),
            std::string::npos);
  const auto ok = RunCommand({"sweep", "preset:tiny", "--max-rate", "1e-4",
                              "--points", "2", "--no-sim",
                              "--sim-abort-latency", "500"});
  EXPECT_EQ(ok.code, 0) << ok.err;
}

// ---------------------------------------------------------------------------
// Arrival-process flag (--arrival) and its exit-code taxonomy.

TEST(Cli, ArrivalMmppRunsEndToEndAndIsDeterministic) {
  const auto model = RunCommand({"model", "preset:tiny:16:64", "--rate",
                                 "1e-4", "--arrival", "mmpp:4,8"});
  EXPECT_EQ(model.code, 0) << model.err;
  EXPECT_NE(model.out.find("mmpp:4,8"), std::string::npos) << model.out;
  const auto poisson = RunCommand({"model", "preset:tiny:16:64", "--rate",
                                   "1e-4"});
  EXPECT_NE(model.out, poisson.out);  // the correction moved the numbers
  const auto sim = RunCommand({"sim", "preset:tiny:8:32", "--rate", "1e-4",
                               "--messages", "1000", "--seed", "3",
                               "--arrival", "mmpp:4,8"});
  EXPECT_EQ(sim.code, 0) << sim.err;
  const auto again = RunCommand({"sim", "preset:tiny:8:32", "--rate", "1e-4",
                                 "--messages", "1000", "--seed", "3",
                                 "--arrival", "mmpp:4,8"});
  EXPECT_EQ(sim.out, again.out);  // same seed, same bytes
}

TEST(Cli, NonPoissonModelOutputCarriesTheApproximationNote) {
  for (const char* cmd : {"model", "bottleneck"}) {
    const auto r = RunCommand({cmd, "preset:tiny:16:64", "--rate", "1e-4",
                               "--arrival", "mmpp:4,8"});
    EXPECT_EQ(r.code, 0) << r.err;
    EXPECT_NE(r.out.find("Allen-Cunneen"), std::string::npos)
        << cmd << ": " << r.out;
    const auto plain = RunCommand({cmd, "preset:tiny:16:64", "--rate",
                                   "1e-4"});
    EXPECT_EQ(plain.out.find("Allen-Cunneen"), std::string::npos) << cmd;
    // mmpp:1 is exactly Poisson: same bytes, no note.
    const auto unit = RunCommand({cmd, "preset:tiny:16:64", "--rate", "1e-4",
                                  "--arrival", "mmpp:1,8"});
    EXPECT_EQ(unit.out, plain.out) << cmd;
  }
}

TEST(Cli, ArrivalTraceReplayRunsEndToEnd) {
  const std::string path = WriteTempFile(
      "coc_cli_test_replay.trace",
      "# time src dst flits\n0 0 9 8\n40 1 10 8\n90 2 11 8\n150 3 12 8\n");
  const auto r = RunCommand({"sim", "preset:tiny:8:32", "--rate", "1e-4",
                             "--messages", "500", "--arrival",
                             "trace:" + path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("trace:" + path), std::string::npos) << r.out;
  std::remove(path.c_str());
}

TEST(Cli, ConfigNamesTheFirstBadKeyByLine) {
  // Two bad keys whose alphabetical order is the reverse of their line
  // order: the error names the first in the file.
  const auto with = [](const std::string& first, const std::string& second) {
    std::string t = kValidConfig;
    t.insert(t.find("icn2 = fast"), first + "\n");
    t.insert(t.find("message_flits"), second + "\n");
    return t;
  };
  const std::string path =
      WriteTempFile("coc_cli_test_key_order.conf",
                    with("zzz_first = 1", "aaa_second = 2"));
  const auto r = RunCommand({"info", path});
  std::remove(path.c_str());
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("config line 5: unknown key 'zzz_first'"),
            std::string::npos)
      << r.err;
  // The same for two bad workload.* values.
  try {
    ParseSystemConfig(
        with("workload.pattern = bogus", "workload.locality = 2"));
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("config line 5:"), std::string::npos)
        << e.what();
  }
}

TEST(Cli, HugeLatenciesPrintInScientificNotation) {
  // An extreme but finite MMPP: every latency is ~1e149 us. Fixed notation
  // printed all its digits, cut at the format buffer to a wrong number.
  const auto r = RunCommand({"model", "preset:tiny", "--rate", "1e-4",
                             "--arrival", "mmpp:1e150,1e150"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("mean latency: 3.48e+149 us\n"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("6.5e+147  4.48e+149  3.63e+149  3.48e+149\n"),
            std::string::npos)
      << r.out;
}

TEST(Cli, ArrivalFlagErrorsFollowTheExitCodeTaxonomy) {
  // A bogus spec is flag misuse: exit 1 (invalid_argument from the parse).
  const auto bogus = RunCommand({"model", "preset:tiny:16:64", "--rate",
                                 "1e-4", "--arrival", "gamma:2"});
  EXPECT_EQ(bogus.code, 1);
  EXPECT_NE(bogus.err.find("arrival spec 'gamma:2'"), std::string::npos)
      << bogus.err;
  // A missing trace file is a usage error (exit 2) naming errno, exactly
  // like a missing scenario file.
  const auto missing = RunCommand({"sim", "preset:tiny:8:32", "--rate",
                                   "1e-4", "--messages", "100", "--arrival",
                                   "trace:/no/such/file.trace"});
  EXPECT_EQ(missing.code, 2);
  EXPECT_NE(missing.err.find("cannot open trace file"), std::string::npos)
      << missing.err;
  EXPECT_NE(missing.err.find("No such file or directory"), std::string::npos)
      << missing.err;
  // Malformed trace *content* is a scenario error (exit 1) naming the line.
  const std::string unsorted = WriteTempFile(
      "coc_cli_test_unsorted.trace", "1.0 0 1 4\n0.5 1 0 4\n");
  const auto bad = RunCommand({"sim", "preset:tiny:8:32", "--rate", "1e-4",
                               "--messages", "100", "--arrival",
                               "trace:" + unsorted});
  EXPECT_EQ(bad.code, 1);
  EXPECT_NE(bad.err.find("line 2"), std::string::npos) << bad.err;
  EXPECT_NE(bad.err.find("time-sorted"), std::string::npos) << bad.err;
  std::remove(unsorted.c_str());
  // A trace whose node ids exceed the system's range names the line too.
  const std::string range = WriteTempFile("coc_cli_test_range.trace",
                                          "0 0 1 4\n5 0 9999 4\n");
  const auto oob = RunCommand({"sim", "preset:tiny:8:32", "--rate", "1e-4",
                               "--messages", "100", "--arrival",
                               "trace:" + range});
  EXPECT_EQ(oob.code, 1);
  EXPECT_NE(oob.err.find("line 2"), std::string::npos) << oob.err;
  EXPECT_NE(oob.err.find("node id 9999"), std::string::npos) << oob.err;
  std::remove(range.c_str());
  // Arrival processes whose interarrival SCV is not finite: a trace whose
  // gap moments overflow is a scenario error, an mmpp whose closed form
  // overflows a bad spec; both exit 1 instead of calling every rate
  // saturated.
  const std::string overflow = WriteTempFile(
      "coc_cli_test_overflow.trace", "0 0 1 4\n0 0 2 4\n1.7e308 1 0 4\n");
  const auto huge_gap = RunCommand({"model", "preset:tiny", "--rate", "1e-4",
                                    "--arrival", "trace:" + overflow});
  EXPECT_EQ(huge_gap.code, 1);
  EXPECT_NE(huge_gap.err.find("overflow the interarrival SCV"),
            std::string::npos)
      << huge_gap.err;
  std::remove(overflow.c_str());
  const auto huge_mmpp = RunCommand({"model", "preset:tiny", "--rate", "1e-4",
                                     "--arrival", "mmpp:1e300,1e300"});
  EXPECT_EQ(huge_mmpp.code, 1);
  EXPECT_NE(huge_mmpp.err.find("no finite interarrival SCV"),
            std::string::npos)
      << huge_mmpp.err;
}

TEST(Cli, SweepBurstinessDialEmitsGridTable) {
  const auto r = RunCommand({"sweep", "preset:tiny:16:64", "--max-rate",
                             "1e-3", "--points", "2", "--sweep-burstiness",
                             "1:8:3.5"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("burstiness"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("sat_rate"), std::string::npos);
}

TEST(Cli, ScenarioArrivalKeyRoundTripsThroughBatch) {
  const std::string path = WriteTempFile("coc_cli_test_arrival_batch.cfg",
                                         "[scenario bursty]\n"
                                         "system = preset:tiny:16:64\n"
                                         "analyses = model\n"
                                         "rate = 1e-4\n"
                                         "workload.arrival = mmpp:4,8\n");
  const auto r = RunCommand({"batch", path, "--format", "json"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("mmpp:4,8"), std::string::npos) << r.out;
  // A bad arrival spec inside the file is a line-numbered config error.
  const std::string bad_path = WriteTempFile(
      "coc_cli_test_arrival_bad.cfg",
      "[scenario bursty]\nsystem = preset:tiny\nanalyses = model\n"
      "rate = 1e-4\nworkload.arrival = mmpp:nope,8\n");
  const auto bad = RunCommand({"batch", bad_path});
  EXPECT_EQ(bad.code, 1);
  EXPECT_NE(bad.err.find("line 5"), std::string::npos) << bad.err;
  std::remove(path.c_str());
  std::remove(bad_path.c_str());
}

TEST(Cli, ConfigFileRoundTrip) {
  const std::string path = "/tmp/coc_cli_test_system.conf";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(kValidConfig, f);
  std::fclose(f);
  const auto r = RunCommand({"info", path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("nodes: 24"), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// One reader of the workload.* keys: every row runs through a config file,
// through a scenario file on the same system, and through the CLI's workload
// flags. All three must run the same workload or raise the same error.

struct WorkloadRow {
  const char* name;
  const char* keys;                // workload.* lines
  std::vector<std::string> flags;  // the same request as CLI flags
  const char* workload;            // Describe() of the workload, or null
  const char* error;               // else a substring of all three errors
};

class WorkloadKeysAgree : public ::testing::TestWithParam<WorkloadRow> {};

TEST_P(WorkloadKeysAgree, InConfigScenarioAndFlags) {
  const WorkloadRow& row = GetParam();
  const std::string path =
      WriteTempFile("coc_cli_test_workload_keys.cfg", kValidConfig);
  const Experiment base = ParseExperiment(kValidConfig);

  std::string config = kValidConfig;
  const std::string anchor = "flit_bytes = 64\n";
  config.insert(config.find(anchor) + anchor.size(), row.keys);
  std::optional<Workload> from_config;
  std::string config_error;
  try {
    from_config = ParseExperiment(config).workload;
  } catch (const std::invalid_argument& e) {
    config_error = e.what();
  }

  std::optional<Workload> from_scenario;
  std::string scenario_error;
  try {
    const Scenario s = ParseScenario("[scenario keys]\nsystem = " + path +
                                     "\nrate = 1e-4\n" + row.keys);
    from_scenario = s.workload.ApplyTo(base.workload, base.system);
  } catch (const std::invalid_argument& e) {
    scenario_error = e.what();
  }

  std::vector<std::string> args = {"info", path};
  args.insert(args.end(), row.flags.begin(), row.flags.end());
  const CliRun cli = RunCommand(args);
  std::remove(path.c_str());

  if (row.workload != nullptr) {
    ASSERT_TRUE(from_config.has_value()) << config_error;
    ASSERT_TRUE(from_scenario.has_value()) << scenario_error;
    EXPECT_EQ(*from_config, *from_scenario);
    EXPECT_EQ(from_config->Describe(), row.workload);
    ASSERT_EQ(cli.code, 0) << cli.err;
    EXPECT_NE(cli.out.find(std::string("workload: ") + row.workload + "\n"),
              std::string::npos)
        << cli.out;
  } else {
    EXPECT_FALSE(from_config.has_value()) << from_config->Describe();
    EXPECT_FALSE(from_scenario.has_value()) << from_scenario->Describe();
    EXPECT_EQ(cli.code, 1) << cli.out;
    for (const std::string& what : {config_error, scenario_error, cli.err}) {
      EXPECT_NE(what.find(row.error), std::string::npos) << what;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WorkloadKeysAgree,
    ::testing::Values(
        // A key implies the pattern it parameterizes.
        WorkloadRow{"LocalityAlone", "workload.locality = 0.9\n",
                    {"--locality", "0.9"}, "local 90%", nullptr},
        WorkloadRow{"HotspotFractionAlone",
                    "workload.hotspot_fraction = 0.2\n",
                    {"--hotspot-fraction", "0.2"}, "hotspot 20% -> node 0",
                    nullptr},
        WorkloadRow{"HotspotNodeAlone", "workload.hotspot_node = 5\n",
                    {"--hotspot-node", "5"}, "hotspot 10% -> node 5",
                    nullptr},
        // Contradictory keys are errors, never a silent choice of one.
        WorkloadRow{"HotspotWithLocality",
                    "workload.pattern = hotspot\nworkload.locality = 0.6\n",
                    {"--pattern", "hotspot", "--locality", "0.6"}, nullptr,
                    "--locality implies --pattern local"},
        WorkloadRow{"PermutationWithLocality",
                    "workload.pattern = permutation\n"
                    "workload.locality = 0.6\n",
                    {"--pattern", "permutation", "--locality", "0.6"},
                    nullptr, "--locality implies --pattern local"},
        WorkloadRow{"LocalWithHotspotNode",
                    "workload.pattern = local\nworkload.hotspot_node = 5\n",
                    {"--pattern", "local", "--hotspot-node", "5"}, nullptr,
                    "--hotspot-node implies --pattern hotspot"},
        // One cluster index in two spellings is one cluster set twice.
        WorkloadRow{"RateIndexTwice",
                    "workload.rate.1 = 2\nworkload.rate.01 = 4\n",
                    {"--rate-scale", "1=2,01=4"}, nullptr,
                    "duplicate cluster index 1"},
        // Every key at once (locality, which contradicts the hotspot keys,
        // is the next row's).
        WorkloadRow{"EveryKeyAtOnce",
                    "workload.pattern = hotspot\n"
                    "workload.hotspot_fraction = 0.2\n"
                    "workload.hotspot_node = 3\nworkload.rate.0 = 2.5\n"
                    "workload.rate.2 = 0.5\n"
                    "workload.msg_len = bimodal:4,32,0.1\n"
                    "workload.arrival = mmpp:4,8\n",
                    {"--pattern", "hotspot", "--hotspot-fraction", "0.2",
                     "--hotspot-node", "3", "--rate-scale", "0=2.5,2=0.5",
                     "--msg-len", "bimodal:4,32,0.1", "--arrival",
                     "mmpp:4,8"},
                    "hotspot 20% -> node 3, per-cluster rates, "
                    "bimodal:4,32,0.1, mmpp:4,8",
                    nullptr},
        WorkloadRow{"LocalWithRate",
                    "workload.pattern = local\nworkload.locality = 0.7\n"
                    "workload.rate.3 = 2\n",
                    {"--pattern", "local", "--locality", "0.7",
                     "--rate-scale", "3=2"},
                    "local 70%, per-cluster rates", nullptr}),
    [](const ::testing::TestParamInfo<WorkloadRow>& info) {
      return info.param.name;
    });

TEST(ConfigParser, MutationPropertyNeverCrashesOnlyStructuredErrors) {
  // The config-file counterpart of the scenario parser's mutation sweep:
  // the five INI operators, plus numbers replaced by values at or past
  // every bound and topology specs past the 2^22-node cap. Each trial must
  // parse or raise std::invalid_argument, never another exception type or
  // a crash (the suite runs under ASan/UBSan in CI). The base carries every
  // key; locality contradicts the hotspot keys, so each trial carries one
  // of the two pattern families.
  constexpr const char* kBase = R"([system]
m = 4
icn2 = fast
icn2_topology = torus:2x2
message_flits = 16
flit_bytes = 64
%PATTERN%workload.rate.1 = 2.5
workload.msg_len = bimodal:8,64,0.1
workload.arrival = mmpp:4,8

[network fast]
bandwidth = 500
network_latency = 0.01
switch_latency = 0.02

[network slow]
bandwidth = 250
network_latency = 0.05
switch_latency = 0.01

[clusters]
count = 2
n = 2
icn1 = fast
ecn1 = slow

[clusters]
count = 2
topology = mesh:2x3
ecn1_topology = mesh:2x3,tap=center
icn1 = fast
ecn1 = slow
)";
  const char* const kPatterns[] = {
      "workload.pattern = hotspot\nworkload.hotspot_fraction = 0.25\n"
      "workload.hotspot_node = 7\n",
      "workload.pattern = local\nworkload.locality = 0.7\n"};
  const char* const kExtremes[] = {"2000000000", "9223372036854775807",
                                   "1e999", "nan"};
  const char* const kOversized[] = {"tree:m=200000,n=4", "mesh:2x23",
                                    "torus:4096x2048", "crossbar:4194305",
                                    "dragonfly:64,64,64"};
  Rng rng(20261017);
  const auto replace_number = [&](std::string& text) {
    const std::size_t at =
        text.find_first_of("0123456789", Pick(rng, text.size() + 1));
    if (at == std::string::npos) return;
    const std::size_t end = text.find_first_not_of("0123456789.", at);
    text.replace(at, (end == std::string::npos ? text.size() : end) - at,
                 kExtremes[Pick(rng, std::size(kExtremes))]);
  };
  const auto oversize_topology = [&](std::string& text) {
    std::vector<std::size_t> values;
    for (std::size_t at = text.find("topology = "); at != std::string::npos;
         at = text.find("topology = ", at + 1)) {
      values.push_back(at + std::string("topology = ").size());
    }
    if (values.empty()) return;
    const std::size_t from = values[Pick(rng, values.size())];
    const std::size_t end = text.find('\n', from);
    text.replace(from, (end == std::string::npos ? text.size() : end) - from,
                 kOversized[Pick(rng, std::size(kOversized))]);
  };

  constexpr int kTrials = 1000;
  int parsed_ok = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::string text = kBase;
    text.replace(text.find("%PATTERN%"), 9, kPatterns[trial % 2]);
    const std::size_t mutations = 1 + Pick(rng, 3);
    for (std::size_t m = 0; m < mutations; ++m) {
      const std::size_t op = Pick(rng, kIniMutations + 2);
      if (op < kIniMutations) {
        MutateIni(text, op, rng);
      } else if (op == kIniMutations) {
        replace_number(text);
      } else {
        oversize_topology(text);
      }
    }
    try {
      ParseExperiment(text);
      ++parsed_ok;
    } catch (const std::invalid_argument& e) {
      ASSERT_FALSE(std::string(e.what()).empty()) << "trial " << trial;
    }
  }
  EXPECT_GT(parsed_ok, 0);
  EXPECT_LT(parsed_ok, kTrials);
}

}  // namespace
}  // namespace coc
