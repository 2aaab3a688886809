// Tests for the Scenario value type: parse <-> serialize round-trips (a
// seeded property sweep over the field space), the batch-file parser's
// rejection branches, and the WorkloadOverlay conflict guards shared with
// the CLI's workload flags.
#include <string>
#include <vector>

#include "api/scenario.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "ini_mutation.h"
#include "system/presets.h"

namespace coc {
namespace {

TEST(Scenario, SerializeParsesBackToEqualValue) {
  Scenario s;
  s.name = "everything";
  s.system = "preset:mixed:16:64";
  s.icn2_override = ParseTopologySpec("dragonfly:2,2,1,routing=valiant");
  s.analyses = 0;
  s.Request(Analysis::kModel)
      .Request(Analysis::kBottleneck)
      .Request(Analysis::kSaturation)
      .Request(Analysis::kSweep)
      .Request(Analysis::kSim);
  s.rate = 2.5e-4;
  s.deadline_ms = 1500;
  s.sim_abort_latency = 4500;
  s.sim_max_events = 1000000;
  s.workload.pattern = WorkloadPattern::kHotspot;
  s.workload.hotspot_fraction = 0.25;
  s.workload.hotspot_node = 7;
  s.workload.msg_len = MessageLength::Bimodal(8, 64, 0.125);
  s.workload.rate_scale = {{0, 2.0}, {3, 0.5}};
  s.model.lambda_i2 = ModelOptions::LambdaI2::kHarmonic;
  s.model.relaxing_factor = ModelOptions::RelaxingFactor::kOff;
  s.model.include_last_stage_wait = false;
  s.sweep_max_rate = 1e-3;
  s.sweep_points = 5;
  s.sweep_sim = false;
  s.sim_messages = 1234;
  s.sim_seed = 99;
  s.condis = CondisMode::kStoreForward;

  const Scenario back = ParseScenario(s.Serialize());
  EXPECT_EQ(back, s);
  // Serialization is canonical: a second round trip is a fixed point.
  EXPECT_EQ(back.Serialize(), s.Serialize());
}

TEST(Scenario, PropertyRandomizedRoundTrip) {
  // Seeded sweep over the field space: every valid Scenario must satisfy
  // Parse(Serialize(s)) == s. Fields are drawn independently; invalid
  // combinations are avoided by construction (Validate requires rate/sweep
  // parameters for the analyses that use them).
  Rng rng(20260728);
  const auto pick = [&rng](int n) {
    return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
  };
  for (int trial = 0; trial < 200; ++trial) {
    Scenario s;
    s.name = "t" + std::to_string(trial);
    s.system = pick(2) ? "preset:tiny:16:64" : "some/config/file.cfg";
    if (pick(2)) {
      const char* const kOverrides[] = {"crossbar:16", "mesh:2x2,tap=center",
                                        "tree", "tree:3", "crossbar"};
      s.icn2_override = ParseTopologySpec(kOverrides[pick(5)]);
    }
    s.analyses = 0;
    if (pick(2)) s.Request(Analysis::kModel);
    if (pick(2)) s.Request(Analysis::kBottleneck);
    if (pick(2)) s.Request(Analysis::kSaturation);
    if (pick(2)) s.Request(Analysis::kSweep);
    if (pick(2)) s.Request(Analysis::kSim);
    if (s.analyses == 0) s.Request(Analysis::kSaturation);
    s.rate = (1.0 + pick(1000)) * 1e-6;
    switch (pick(4)) {
      case 0: break;
      case 1:
        s.workload.pattern = WorkloadPattern::kClusterLocal;
        s.workload.locality = 0.001 * (1 + pick(999));
        break;
      case 2:
        s.workload.pattern = WorkloadPattern::kHotspot;
        s.workload.hotspot_fraction = 0.001 * (1 + pick(999));
        s.workload.hotspot_node = pick(32);
        break;
      case 3:
        s.workload.pattern = WorkloadPattern::kPermutation;
        break;
    }
    // Arbitrary fractions and MMPP parameters: their spellings must
    // round-trip every bit, including digits a six-digit spelling drops.
    if (pick(2)) {
      s.workload.msg_len = MessageLength::Bimodal(1 + pick(64), 1 + pick(1024),
                                                  rng.NextDouble());
    }
    if (pick(2)) {
      s.workload.arrival = ArrivalProcess::Mmpp(1.0 + 15.0 * rng.NextDouble(),
                                                0.5 + 64.0 * rng.NextDouble());
    }
    if (pick(2)) s.workload.rate_scale = {{pick(4), 0.25 * (1 + pick(8))}};
    // Every model.* knob over all of its values (enumerators are 0..n-1).
    s.model.lambda_i2 = static_cast<ModelOptions::LambdaI2>(pick(2));
    s.model.ecn_eta = static_cast<ModelOptions::EcnEta>(pick(2));
    s.model.condis_service =
        static_cast<ModelOptions::CondisService>(pick(2));
    s.model.relaxing_factor =
        static_cast<ModelOptions::RelaxingFactor>(pick(3));
    s.model.source_queue_rate =
        static_cast<ModelOptions::SourceQueueRate>(pick(2));
    s.model.include_last_stage_wait = pick(2) != 0;
    s.sweep_max_rate = (1 + pick(100)) * 1e-5;  // kept even without kSweep
    s.sweep_points = 1 + pick(Scenario::kMaxSweepPoints);
    s.sweep_sim = pick(2) != 0;
    if (pick(2)) s.sim_messages = 1 + pick(10000);
    s.sim_seed = static_cast<std::uint64_t>(1 + pick(1 << 20));
    s.condis = pick(2) ? CondisMode::kStoreForward : CondisMode::kCutThrough;
    if (pick(2)) s.deadline_ms = 1.0 + pick(100000);
    if (pick(2)) s.sim_abort_latency = 1.0 + pick(10000);
    if (pick(2)) s.sim_max_events = 1 + pick(1 << 24);

    const std::string text = s.Serialize();
    const Scenario back = ParseScenario(text);
    ASSERT_EQ(back, s) << "trial " << trial << "\n" << text;
    ASSERT_EQ(back.Serialize(), text) << "trial " << trial;
  }
}

TEST(Scenario, MutationPropertyNeverCrashesOnlyStructuredErrors) {
  // Robustness sweep: random mutations of a valid scenario file (byte
  // truncations, number corruption, duplicated/spliced lines, random byte
  // edits) must either parse cleanly or raise the structured parse error
  // (std::invalid_argument, which ScenarioError derives from) — never any
  // other exception type and never a crash. The suite runs under
  // ASan/UBSan in CI, so out-of-bounds reads in the parser would also trip.
  const std::string base =
      "[scenario mut]\n"
      "system = preset:tiny:16:64\n"
      "analyses = model,bottleneck,sweep\n"
      "rate = 2.5e-4\n"
      "deadline_ms = 250\n"
      "workload.pattern = hotspot\n"
      "workload.hotspot_fraction = 0.25\n"
      "workload.hotspot_node = 7\n"
      "workload.msg_len = bimodal:8,64,0.125\n"
      "model.lambda_i2 = harmonic\n"
      "sweep.max_rate = 1e-3\n"
      "sweep.points = 5\n"
      "sweep.abort_latency = 2500\n"
      "sim.messages = 1234\n"
      "sim.seed = 99\n"
      "sim.max_events = 100000\n"
      "sim.condis = store-forward\n";
  // An invalid base would leave the trials exercising its one error.
  for (const Scenario& s : ParseScenarios(base)) s.Validate();
  Rng rng(20260807);
  int parsed_ok = 0;
  for (int trial = 0; trial < 500; ++trial) {
    std::string text = base;
    const std::size_t mutations = 1 + Pick(rng, 3);
    for (std::size_t m = 0; m < mutations; ++m) {
      MutateIni(text, Pick(rng, kIniMutations), rng);
    }
    try {
      const auto scenarios = ParseScenarios(text);
      for (const Scenario& s : scenarios) s.Validate();
      ++parsed_ok;
    } catch (const std::invalid_argument& e) {
      // The structured rejection path: a non-empty diagnostic, no crash.
      ASSERT_FALSE(std::string(e.what()).empty()) << "trial " << trial;
    }
    // Any other exception type escapes and fails the test; memory errors
    // are caught by the sanitizer jobs.
  }
  // The sweep must exercise both outcomes to mean anything.
  EXPECT_GT(parsed_ok, 0);
  EXPECT_LT(parsed_ok, 500);
}

TEST(Scenario, SimSeedKeepsFull64Bits) {
  // Seeds must not round-trip through a double: 2^53+1 would silently
  // become a different seed.
  const Scenario s = ParseScenario(
      "[scenario x]\nsystem = preset:tiny\nrate = 1e-4\n"
      "sim.seed = 9007199254740993\n");
  EXPECT_EQ(s.sim_seed, 9007199254740993ull);
  const Scenario big = ParseScenario(
      "[scenario x]\nsystem = preset:tiny\nrate = 1e-4\n"
      "sim.seed = 12345678901234567890\n");
  EXPECT_EQ(big.sim_seed, 12345678901234567890ull);
  EXPECT_EQ(ParseScenario(big.Serialize()), big);
}

TEST(Scenario, IntegerKeysRejectExponentsAndFractions) {
  // The integer keys share the CLI's integer-flag rule: "1e4" and "3.0" are
  // numbers but not integer tokens, so they fail instead of being converted.
  // "+3" is no number at all under the one number rule.
  const struct {
    const char* line;
    const char* expect;
  } cases[] = {
      {"sim.messages = 1e4\n", "must be an integer"},
      {"sim.max_events = 2.5\n", "must be an integer"},
      {"sweep.points = 3.0\n", "must be an integer"},
      {"workload.hotspot_node = +3\n", "not a number"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.line);
    try {
      ParseScenario(std::string("[scenario x]\nsystem = preset:tiny\n") +
                    "rate = 1e-4\n" + c.line);
      FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.expect), std::string::npos)
          << e.what();
    }
  }
}

TEST(Scenario, SemanticErrorsNameTheOffendingLine) {
  // Key-level failures point at the key's own line, not the section header.
  try {
    ParseScenarios(
        "[scenario x]\n"       // line 1
        "system = preset:tiny\n"
        "rate = 1e-4\n"
        "sim.seed = soon\n");  // line 4
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("config line 4"), std::string::npos)
        << e.what();
  }
  // With two bad keys, the first by line is named, not the first by name.
  try {
    ParseScenarios(
        "[scenario x]\n"
        "system = preset:tiny\n"
        "sim.seed = soon\n"  // line 3
        "rate = fast\n");    // line 4
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("config line 3: 'sim.seed'"),
              std::string::npos)
        << e.what();
  }
}

TEST(Scenario, ParseMultipleSectionsAndAutoNames) {
  const auto scenarios = ParseScenarios(
      "[scenario]\nsystem = preset:tiny\nrate = 1e-4\n"
      "[scenario named]\nsystem = preset:544\nanalyses = saturation\n");
  ASSERT_EQ(scenarios.size(), 2u);
  EXPECT_EQ(scenarios[0].name, "scenario1");
  EXPECT_TRUE(scenarios[0].Has(Analysis::kModel));  // the default analysis
  EXPECT_EQ(scenarios[1].name, "named");
  EXPECT_TRUE(scenarios[1].Has(Analysis::kSaturation));
  EXPECT_FALSE(scenarios[1].Has(Analysis::kModel));
}

struct BadScenario {
  const char* name;
  const char* text;
  const char* expect;  // substring of the error message
};

class ScenarioErrors : public ::testing::TestWithParam<BadScenario> {};

TEST_P(ScenarioErrors, RejectedWithDiagnostic) {
  try {
    ParseScenarios(GetParam().text);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(GetParam().expect), std::string::npos)
        << "actual: " << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ScenarioErrors,
    ::testing::Values(
        BadScenario{"Empty", "", "no [scenario"},
        BadScenario{"WrongKind", "[system]\nm = 4\n", "unknown section kind"},
        BadScenario{"UnknownKey",
                    "[scenario x]\nsystem = preset:tiny\nrate = 1e-4\n"
                    "frobnicate = 1\n",
                    "unknown scenario key"},
        BadScenario{"UnknownAnalysis",
                    "[scenario x]\nsystem = preset:tiny\nanalyses = magic\n",
                    "unknown analysis"},
        BadScenario{"MissingSystem", "[scenario x]\nrate = 1e-4\n",
                    "missing 'system'"},
        BadScenario{"MissingRate",
                    "[scenario x]\nsystem = preset:tiny\nanalyses = model\n",
                    "need 'rate' > 0"},
        BadScenario{"SweepNeedsMaxRate",
                    "[scenario x]\nsystem = preset:tiny\nanalyses = sweep\n",
                    "sweep.max_rate"},
        BadScenario{"BadNumber",
                    "[scenario x]\nsystem = preset:tiny\nrate = fast\n",
                    "not a number"},
        BadScenario{"BadCondis",
                    "[scenario x]\nsystem = preset:tiny\nrate = 1e-4\n"
                    "sim.condis = teleport\n",
                    "cut-through or store-forward"},
        BadScenario{"DuplicateRateIndexSpelling",
                    // "rate.3" and "rate.03" are distinct INI keys but the
                    // same cluster; accepting both would serialize a genuine
                    // duplicate key and break the round-trip property.
                    "[scenario x]\nsystem = preset:tiny\nrate = 1e-4\n"
                    "workload.rate.3 = 2\nworkload.rate.03 = 4\n",
                    "duplicate cluster index"},
        BadScenario{"BadModelKnob",
                    "[scenario x]\nsystem = preset:tiny\nrate = 1e-4\n"
                    "model.lambda_i2 = quadratic\n",
                    "pair_mean or harmonic"},
        // Doubles follow the one number rule: decimal, finite, no '+'. An
        // infinite abort latency would serialize as null, which does not
        // parse back.
        BadScenario{"PlusSignedRate",
                    "[scenario x]\nsystem = preset:tiny\nrate = +1e-4\n",
                    "not a number"},
        BadScenario{"HexRate",
                    "[scenario x]\nsystem = preset:tiny\nrate = 0x1p-13\n",
                    "not a number"},
        BadScenario{"InfiniteAbortLatency",
                    "[scenario x]\nsystem = preset:tiny\nrate = 1e-4\n"
                    "sweep.abort_latency = inf\n",
                    "not a number"},
        // Grid sizes are bounded before a rate grid is allocated; a count
        // past INT_MAX must not wrap into a small valid one (2^32 + 1 -> 1).
        BadScenario{"OversizedSweepGrid",
                    "[scenario x]\nsystem = preset:tiny\nanalyses = sweep\n"
                    "sweep.max_rate = 1e-3\nsweep.points = 2000000000\n",
                    "'sweep.points' is 2000000000, more than 1024"},
        BadScenario{"WrappingSweepGrid",
                    "[scenario x]\nsystem = preset:tiny\nanalyses = sweep\n"
                    "sweep.max_rate = 1e-3\nsweep.points = 4294967297\n",
                    "more than 1024"}),
    [](const ::testing::TestParamInfo<BadScenario>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// WorkloadOverlay: the conflict guards shared by CLI flags and scenario keys.

TEST(WorkloadOverlay, AppliesFieldsOnTopOfBase) {
  const auto sys = MakeTinySystem(MessageFormat{16, 64});
  WorkloadOverlay overlay;
  overlay.pattern = WorkloadPattern::kClusterLocal;
  overlay.locality = 0.7;
  overlay.rate_scale = {{1, 2.0}};
  const Workload w = overlay.ApplyTo(Workload{}, sys);
  EXPECT_EQ(w.pattern, WorkloadPattern::kClusterLocal);
  EXPECT_DOUBLE_EQ(w.locality_fraction, 0.7);
  ASSERT_EQ(w.rate_scale.size(), 4u);
  EXPECT_DOUBLE_EQ(w.rate_scale[1], 2.0);
  EXPECT_DOUBLE_EQ(w.rate_scale[0], 1.0);
}

TEST(WorkloadOverlay, ConflictingPatternGuards) {
  const auto sys = MakeTinySystem(MessageFormat{16, 64});
  {
    WorkloadOverlay o;
    o.pattern = WorkloadPattern::kHotspot;
    o.locality = 0.5;
    EXPECT_THROW(o.ApplyTo(Workload{}, sys), std::invalid_argument);
  }
  {
    WorkloadOverlay o;
    o.locality = 0.5;
    o.hotspot_fraction = 0.2;
    EXPECT_THROW(o.ApplyTo(Workload{}, sys), std::invalid_argument);
  }
  {
    WorkloadOverlay o;
    o.pattern = WorkloadPattern::kUniform;
    o.hotspot_node = 3;
    EXPECT_THROW(o.ApplyTo(Workload{}, sys), std::invalid_argument);
  }
  {
    // A config-file local workload rejects a bare hotspot-node override.
    WorkloadOverlay o;
    o.hotspot_node = 3;
    EXPECT_THROW(o.ApplyTo(Workload::ClusterLocal(0.8), sys),
                 std::invalid_argument);
  }
}

TEST(WorkloadOverlay, RangeChecksNameTheKnob) {
  const auto sys = MakeTinySystem(MessageFormat{16, 64});  // 32 nodes
  {
    WorkloadOverlay o;
    o.hotspot_node = 999;
    try {
      o.ApplyTo(Workload{}, sys);
      FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("outside [0, 32)"),
                std::string::npos)
          << e.what();
    }
  }
  {
    WorkloadOverlay o;
    o.rate_scale = {{17, 2.0}};
    EXPECT_THROW(o.ApplyTo(Workload{}, sys), std::invalid_argument);
  }
}

}  // namespace
}  // namespace coc
