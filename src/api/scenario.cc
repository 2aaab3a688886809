#include "api/scenario.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/ini.h"
#include "common/json.h"
#include "common/parse_num.h"
#include "common/status.h"

namespace coc {
namespace {

constexpr IniName<Analysis> kAnalysisNames[] = {
    {Analysis::kModel, "model"},
    {Analysis::kBottleneck, "bottleneck"},
    {Analysis::kSaturation, "saturation"},
    {Analysis::kSweep, "sweep"},
    {Analysis::kSim, "sim"}};

// --- Key rows --------------------------------------------------------------
// Every key of a scenario file is one row below (the workload.* rows are
// WorkloadOverlay's, in workload.cc): its name, how its value parses, and
// how it prints when not at its default. Scenario::Set, Serialize, the
// unknown-key suggestion and the Engine's model-memo key all read the rows.

constexpr IniName<bool> kBoolNames[] = {{true, "true"}, {false, "false"}};
constexpr IniName<CondisMode> kCondisNames[] = {
    {CondisMode::kCutThrough, "cut-through"},
    {CondisMode::kStoreForward, "store-forward"}};

using MO = ModelOptions;
constexpr IniName<MO::LambdaI2> kLambdaI2Names[] = {
    {MO::LambdaI2::kPairMean, "pair_mean"},
    {MO::LambdaI2::kHarmonic, "harmonic"}};
constexpr IniName<MO::EcnEta> kEcnEtaNames[] = {
    {MO::EcnEta::kPerSide, "per_side"},
    {MO::EcnEta::kSourceSideOnly, "source_side"}};
constexpr IniName<MO::CondisService> kCondisServiceNames[] = {
    {MO::CondisService::kIcn2Rate, "icn2_rate"},
    {MO::CondisService::kSupplyLimited, "supply_limited"}};
constexpr IniName<MO::RelaxingFactor> kRelaxingFactorNames[] = {
    {MO::RelaxingFactor::kInverseCapacity, "inverse_capacity"},
    {MO::RelaxingFactor::kAsPrinted, "as_printed"},
    {MO::RelaxingFactor::kOff, "off"}};
constexpr IniName<MO::SourceQueueRate> kSourceQueueRateNames[] = {
    {MO::SourceQueueRate::kPerNode, "per_node"},
    {MO::SourceQueueRate::kNetworkTotal, "network_total"}};

constexpr IniKey<ModelOptions> kModelKeys[] = {
    IniNameKey<&MO::lambda_i2, kLambdaI2Names>("model.lambda_i2"),
    IniNameKey<&MO::ecn_eta, kEcnEtaNames>("model.ecn_eta"),
    IniNameKey<&MO::condis_service, kCondisServiceNames>(
        "model.condis_service"),
    IniNameKey<&MO::relaxing_factor, kRelaxingFactorNames>(
        "model.relaxing_factor"),
    IniNameKey<&MO::source_queue_rate, kSourceQueueRateNames>(
        "model.source_queue_rate"),
    IniNameKey<&MO::include_last_stage_wait, kBoolNames>(
        "model.include_last_stage_wait"),
};

void SetAnalyses(Scenario& s, const std::string&, const std::string& value) {
  s.analyses = 0;
  std::string::size_type start = 0;
  while (start <= value.size()) {
    const auto comma = value.find(',', start);
    const std::string tok = IniTrim(
        comma == std::string::npos ? value.substr(start)
                                   : value.substr(start, comma - start));
    if (!tok.empty()) s.Request(ParseAnalysis(tok));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
}

void PrintAnalyses(const Scenario& s, std::string_view key, std::string& out) {
  out.append(key).append(" = ");
  const std::size_t mark = out.size();
  for (const auto& [a, name] : kAnalysisNames) {
    if (!s.Has(a)) continue;
    if (out.size() != mark) out += ',';
    out += name;
  }
  if (out.size() == mark) out += "none";
  out += '\n';
}

/// Saturates, not wraps: 2^32 + 1 points must not validate as 1.
int ParseSweepPoints(const std::string& key, const std::string& value) {
  return static_cast<int>(std::clamp<std::int64_t>(
      ParseKeyInteger<std::int64_t>(key, value),
      std::numeric_limits<int>::min(), std::numeric_limits<int>::max()));
}

constexpr IniKey<Scenario> kScenarioKeys[] = {
    {"system",
     [](Scenario& s, const std::string&, const std::string& value) {
       s.system = value;
     },
     [](const Scenario& s, std::string_view key, std::string& out) {
       AppendIniLine(out, key, s.system);
     }},
    IniFieldKey<&Scenario::icn2_override, ParseTopologySpec,
                &TopologySpec::ToString>("icn2_topology"),
    {"analyses", SetAnalyses, PrintAnalyses},
    IniNumberKey<&Scenario::rate>("rate"),
    IniNumberKey<&Scenario::deadline_ms>("deadline_ms"),
    {"workload.",
     [](Scenario& s, const std::string& key, const std::string& value) {
       s.workload.Set(key, value);
     },
     [](const Scenario& s, std::string_view, std::string& out) {
       s.workload.PrintKeys(out);
     },
     WorkloadOverlay::KeyNames},
    {"model.",
     [](Scenario& s, const std::string& key, const std::string& value) {
       SetIniKey(kModelKeys, "scenario", s.model, key, value);
     },
     [](const Scenario& s, std::string_view, std::string& out) {
       PrintModelKeys(s.model, out);
     },
     [](std::vector<std::string_view>& out) { IniKeyNames(kModelKeys, out); }},
    IniNumberKey<&Scenario::sweep_max_rate>("sweep.max_rate"),
    IniNumberKey<&Scenario::sweep_points, ParseSweepPoints>("sweep.points"),
    IniNameKey<&Scenario::sweep_sim, kBoolNames>("sweep.sim"),
    IniNumberKey<&Scenario::sim_abort_latency>("sweep.abort_latency"),
    IniNumberKey<&Scenario::sim_messages>("sim.messages"),
    IniNumberKey<&Scenario::sim_seed>("sim.seed"),
    IniNameKey<&Scenario::condis, kCondisNames>("sim.condis"),
    IniNumberKey<&Scenario::sim_max_events>("sim.max_events"),
};

}  // namespace

const char* AnalysisName(Analysis a) {
  return IniNameOf(kAnalysisNames, a).data();  // names are literals
}

Analysis ParseAnalysis(const std::string& name) {
  for (const auto& [a, n] : kAnalysisNames) {
    if (n == name) return a;
  }
  throw std::invalid_argument(
      "unknown analysis '" + name +
      "' (use model, bottleneck, saturation, sweep or sim)");
}

// --- Scenario --------------------------------------------------------------

void Scenario::Validate() const {
  const auto fail = [this](const std::string& what) {
    throw ScenarioError("scenario '" + name + "': " + what);
  };
  if (system.empty()) fail("missing 'system' (config path or preset:...)");
  if (analyses == 0) fail("empty 'analyses' list");
  if ((Has(Analysis::kModel) || Has(Analysis::kBottleneck) ||
       Has(Analysis::kSim)) &&
      !(rate > 0)) {
    fail("model/bottleneck/sim analyses need 'rate' > 0");
  }
  if (deadline_ms && !(*deadline_ms > 0)) {
    fail("'deadline_ms' must be > 0");
  }
  if (Has(Analysis::kSweep)) {
    if (!sweep_max_rate) fail("sweep analysis needs 'sweep.max_rate'");
    if (!(*sweep_max_rate > 0)) fail("'sweep.max_rate' must be > 0");
    if (sweep_points < 1) fail("'sweep.points' must be >= 1");
    if (sweep_points > kMaxSweepPoints) {
      fail("'sweep.points' is " + std::to_string(sweep_points) +
           ", more than " + std::to_string(kMaxSweepPoints));
    }
  }
  if (!(sim_abort_latency > 0)) {
    fail("'sweep.abort_latency' must be > 0");
  }
  if (sim_messages && *sim_messages < 1) {
    fail("'sim.messages' must be >= 1");
  }
  if (sim_max_events && *sim_max_events < 1) {
    fail("'sim.max_events' must be >= 1");
  }
}

void Scenario::Set(const std::string& key, const std::string& value) {
  SetIniKey(kScenarioKeys, "scenario", *this, key, value);
}

std::string Scenario::Serialize() const {
  std::string out = "[scenario ";
  out.append(name) += "]\n";
  PrintIniKeys(kScenarioKeys, *this, out);
  return out;
}

void PrintModelKeys(const ModelOptions& opts, std::string& out) {
  PrintIniKeys(kModelKeys, opts, out);
}

std::vector<Scenario> ParseScenarios(const std::string& text) {
  const std::vector<IniSection> sections = ParseIniSections(text);
  if (sections.empty()) {
    throw std::invalid_argument("scenario file has no [scenario ...] sections");
  }
  std::vector<Scenario> scenarios;
  for (const IniSection& section : sections) {
    if (section.kind != "scenario") {
      IniFail(section.line, "unknown section kind '" + section.kind +
                                "' (scenario files use [scenario NAME])");
    }
    Scenario s;
    s.name = section.name.empty()
                 ? "scenario" + std::to_string(scenarios.size() + 1)
                 : section.name;
    for (const auto& [line, entry] : section.ByLine()) {
      try {
        s.Set(entry->first, entry->second);
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        if (what.rfind("config line", 0) == 0) throw;
        IniFail(line, what);
      }
    }
    try {
      s.Validate();
    } catch (const std::invalid_argument& e) {
      IniFail(section.line, e.what());
    }
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

Scenario ParseScenario(const std::string& text) {
  auto scenarios = ParseScenarios(text);
  if (scenarios.size() != 1) {
    throw std::invalid_argument("expected exactly one [scenario ...] section, got " +
                                std::to_string(scenarios.size()));
  }
  return std::move(scenarios.front());
}

std::vector<Scenario> LoadScenarios(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    // UsageError: a bad path is the caller's mistake, not a scenario's.
    // The errno reason ("No such file or directory", "Permission denied")
    // tells them which mistake.
    throw UsageError("cannot open scenario file: " + path + ": " +
                     std::strerror(errno));
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseScenarios(buf.str());
}

}  // namespace coc
