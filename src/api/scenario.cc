#include "api/scenario.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/ini.h"
#include "common/json.h"
#include "common/parse_num.h"
#include "common/status.h"
#include "system/system_config.h"

namespace coc {
namespace {

constexpr Analysis kAllAnalyses[] = {Analysis::kModel, Analysis::kBottleneck,
                                     Analysis::kSaturation, Analysis::kSweep,
                                     Analysis::kSim};

// --- ModelOptions spellings ------------------------------------------------
// Each reconstruction knob gets a stable text name so scenarios (and the
// Engine's memo keys) can carry non-default reconstructions.

const char* LambdaI2Name(ModelOptions::LambdaI2 v) {
  return v == ModelOptions::LambdaI2::kPairMean ? "pair_mean" : "harmonic";
}
const char* EcnEtaName(ModelOptions::EcnEta v) {
  return v == ModelOptions::EcnEta::kPerSide ? "per_side" : "source_side";
}
const char* CondisServiceName(ModelOptions::CondisService v) {
  return v == ModelOptions::CondisService::kIcn2Rate ? "icn2_rate"
                                                     : "supply_limited";
}
const char* RelaxingFactorName(ModelOptions::RelaxingFactor v) {
  switch (v) {
    case ModelOptions::RelaxingFactor::kInverseCapacity:
      return "inverse_capacity";
    case ModelOptions::RelaxingFactor::kAsPrinted:
      return "as_printed";
    case ModelOptions::RelaxingFactor::kOff:
      return "off";
  }
  return "?";
}
const char* SourceQueueRateName(ModelOptions::SourceQueueRate v) {
  return v == ModelOptions::SourceQueueRate::kPerNode ? "per_node"
                                                      : "network_total";
}

[[noreturn]] void BadEnum(const std::string& key, const std::string& value,
                          const char* expected) {
  throw std::invalid_argument("'" + key + "' has unknown value '" + value +
                              "' (use " + expected + ")");
}

void ApplyModelKey(ModelOptions& opts, const std::string& key,
                   const std::string& value) {
  if (key == "model.lambda_i2") {
    if (value == "pair_mean") opts.lambda_i2 = ModelOptions::LambdaI2::kPairMean;
    else if (value == "harmonic") opts.lambda_i2 = ModelOptions::LambdaI2::kHarmonic;
    else BadEnum(key, value, "pair_mean or harmonic");
  } else if (key == "model.ecn_eta") {
    if (value == "per_side") opts.ecn_eta = ModelOptions::EcnEta::kPerSide;
    else if (value == "source_side") opts.ecn_eta = ModelOptions::EcnEta::kSourceSideOnly;
    else BadEnum(key, value, "per_side or source_side");
  } else if (key == "model.condis_service") {
    if (value == "icn2_rate") opts.condis_service = ModelOptions::CondisService::kIcn2Rate;
    else if (value == "supply_limited") opts.condis_service = ModelOptions::CondisService::kSupplyLimited;
    else BadEnum(key, value, "icn2_rate or supply_limited");
  } else if (key == "model.relaxing_factor") {
    if (value == "inverse_capacity") opts.relaxing_factor = ModelOptions::RelaxingFactor::kInverseCapacity;
    else if (value == "as_printed") opts.relaxing_factor = ModelOptions::RelaxingFactor::kAsPrinted;
    else if (value == "off") opts.relaxing_factor = ModelOptions::RelaxingFactor::kOff;
    else BadEnum(key, value, "inverse_capacity, as_printed or off");
  } else if (key == "model.source_queue_rate") {
    if (value == "per_node") opts.source_queue_rate = ModelOptions::SourceQueueRate::kPerNode;
    else if (value == "network_total") opts.source_queue_rate = ModelOptions::SourceQueueRate::kNetworkTotal;
    else BadEnum(key, value, "per_node or network_total");
  } else if (key == "model.include_last_stage_wait") {
    if (value == "true") opts.include_last_stage_wait = true;
    else if (value == "false") opts.include_last_stage_wait = false;
    else BadEnum(key, value, "true or false");
  } else {
    throw std::invalid_argument(
        "unknown scenario key '" + key +
        "' (model.* keys: lambda_i2, ecn_eta, condis_service, "
        "relaxing_factor, source_queue_rate, include_last_stage_wait)");
  }
}

bool ParseBool(const std::string& key, const std::string& value) {
  if (value == "true") return true;
  if (value == "false") return false;
  BadEnum(key, value, "true or false");
}

double ParseDoubleKey(const std::string& key, const std::string& value) {
  const auto v = ParseFullDouble(value);
  if (!v) {
    throw std::invalid_argument("'" + key + "' is not a number: " + value);
  }
  return *v;
}

/// The same integer rule as the CLI's integer flags: the whole token, at
/// full width, with no exponent or fraction ("1e4" and "3.0" are rejected).
/// A non-number still fails as "not a number".
std::int64_t ParseIntKey(const std::string& key, const std::string& value) {
  if (const auto v = ParseFullInteger<std::int64_t>(value)) return *v;
  ParseDoubleKey(key, value);
  throw std::invalid_argument("'" + key + "' must be an integer");
}

/// Full-width parse for sim.seed: going through a double would silently
/// round seeds above 2^53 to a different seed than asked.
std::uint64_t ParseUint64Key(const std::string& key,
                             const std::string& value) {
  const auto v = ParseFullInteger<std::uint64_t>(value);
  if (!v) {
    throw std::invalid_argument("'" + key +
                                "' must be a non-negative integer");
  }
  return *v;
}

}  // namespace

const char* AnalysisName(Analysis a) {
  switch (a) {
    case Analysis::kModel: return "model";
    case Analysis::kBottleneck: return "bottleneck";
    case Analysis::kSaturation: return "saturation";
    case Analysis::kSweep: return "sweep";
    case Analysis::kSim: return "sim";
  }
  return "?";
}

Analysis ParseAnalysis(const std::string& name) {
  for (const Analysis a : kAllAnalyses) {
    if (name == AnalysisName(a)) return a;
  }
  throw std::invalid_argument(
      "unknown analysis '" + name +
      "' (use model, bottleneck, saturation, sweep or sim)");
}

// --- WorkloadOverlay -------------------------------------------------------

Workload WorkloadOverlay::ApplyTo(Workload base, const SystemConfig& sys) const {
  if (pattern) base.pattern = *pattern;
  if (locality) {
    // --locality implies the cluster-local pattern, but never by silently
    // overriding an explicitly contradictory pattern: --pattern hotspot
    // --locality 0.6 is a hard error, not a locality run.
    if (pattern && base.pattern != WorkloadPattern::kClusterLocal) {
      throw std::invalid_argument(
          std::string("--locality implies --pattern local and cannot be "
                      "combined with --pattern ") +
          WorkloadPatternName(base.pattern) +
          " (drop --locality or use --pattern local)");
    }
    if (hotspot_fraction || hotspot_node) {
      throw std::invalid_argument(
          "--locality cannot be combined with --hotspot-fraction or "
          "--hotspot-node (pick one pattern)");
    }
    base.pattern = WorkloadPattern::kClusterLocal;
    base.locality_fraction = *locality;
  }
  if (hotspot_fraction) {
    if (pattern && base.pattern != WorkloadPattern::kHotspot) {
      throw std::invalid_argument(
          std::string("--hotspot-fraction implies --pattern hotspot and "
                      "cannot be combined with --pattern ") +
          WorkloadPatternName(base.pattern) +
          " (drop --hotspot-fraction or use --pattern hotspot)");
    }
    base.pattern = WorkloadPattern::kHotspot;
    base.hotspot_fraction = *hotspot_fraction;
  }
  if (hotspot_node) {
    // Implies the hotspot pattern from the uniform default, but never
    // silently overrides an explicitly non-hotspot scenario — neither an
    // explicit conflicting pattern (mirrors the --hotspot-fraction guard)
    // nor a config file's local/permutation workload.
    if (pattern && base.pattern != WorkloadPattern::kHotspot) {
      throw std::invalid_argument(
          std::string("--hotspot-node implies --pattern hotspot and cannot "
                      "be combined with --pattern ") +
          WorkloadPatternName(base.pattern) +
          " (drop --hotspot-node or use --pattern hotspot)");
    }
    if (base.pattern == WorkloadPattern::kClusterLocal ||
        base.pattern == WorkloadPattern::kPermutation) {
      throw std::invalid_argument(
          "--hotspot-node requires the hotspot pattern (add "
          "--pattern hotspot or --hotspot-fraction F)");
    }
    base.pattern = WorkloadPattern::kHotspot;
    base.hotspot_node = *hotspot_node;
    // Range-check against this system here so the failure names the knob
    // instead of surfacing from deep inside the model.
    if (base.hotspot_node < 0 || base.hotspot_node >= sys.TotalNodes()) {
      throw std::invalid_argument(
          "--hotspot-node " + std::to_string(base.hotspot_node) +
          " outside [0, " + std::to_string(sys.TotalNodes()) +
          ") for this system");
    }
  }
  if (msg_len) base.message_length = *msg_len;
  if (arrival) base.arrival = *arrival;
  if (!rate_scale.empty()) {
    // (index, scale) pairs; unnamed clusters keep scale 1.
    std::vector<double> scale(static_cast<std::size_t>(sys.num_clusters()),
                              1.0);
    for (const auto& [idx, s] : rate_scale) {
      if (idx < 0 || idx >= sys.num_clusters()) {
        throw std::invalid_argument("--rate-scale: cluster index " +
                                    std::to_string(idx) + " out of range");
      }
      scale[static_cast<std::size_t>(idx)] = s;
    }
    base.rate_scale = std::move(scale);
  }
  base.Validate(sys);
  return base;
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

std::string Scenario::Serialize() const {
  std::string out = "[scenario " + name + "]\n";
  const auto kv = [&out](const std::string& key, const std::string& value) {
    out += key + " = " + value + "\n";
  };
  kv("system", system);
  if (icn2_override) kv("icn2_topology", icn2_override->ToString());
  std::string list;
  for (const Analysis a : kAllAnalyses) {
    if (!Has(a)) continue;
    if (!list.empty()) list += ',';
    list += AnalysisName(a);
  }
  kv("analyses", list.empty() ? "none" : list);
  if (rate != 0) kv("rate", JsonNumber(rate));
  if (deadline_ms) kv("deadline_ms", JsonNumber(*deadline_ms));
  if (workload.pattern) {
    kv("workload.pattern", WorkloadPatternName(*workload.pattern));
  }
  if (workload.locality) kv("workload.locality", JsonNumber(*workload.locality));
  if (workload.hotspot_fraction) {
    kv("workload.hotspot_fraction", JsonNumber(*workload.hotspot_fraction));
  }
  if (workload.hotspot_node) {
    kv("workload.hotspot_node", std::to_string(*workload.hotspot_node));
  }
  if (workload.msg_len) kv("workload.msg_len", workload.msg_len->ToString());
  if (workload.arrival) kv("workload.arrival", workload.arrival->ToString());
  for (const auto& [idx, s] : workload.rate_scale) {
    kv("workload.rate." + std::to_string(idx), JsonNumber(s));
  }
  const ModelOptions defaults;
  if (model.lambda_i2 != defaults.lambda_i2) {
    kv("model.lambda_i2", LambdaI2Name(model.lambda_i2));
  }
  if (model.ecn_eta != defaults.ecn_eta) {
    kv("model.ecn_eta", EcnEtaName(model.ecn_eta));
  }
  if (model.condis_service != defaults.condis_service) {
    kv("model.condis_service", CondisServiceName(model.condis_service));
  }
  if (model.relaxing_factor != defaults.relaxing_factor) {
    kv("model.relaxing_factor", RelaxingFactorName(model.relaxing_factor));
  }
  if (model.source_queue_rate != defaults.source_queue_rate) {
    kv("model.source_queue_rate", SourceQueueRateName(model.source_queue_rate));
  }
  if (model.include_last_stage_wait != defaults.include_last_stage_wait) {
    kv("model.include_last_stage_wait",
       model.include_last_stage_wait ? "true" : "false");
  }
  if (sweep_max_rate) kv("sweep.max_rate", JsonNumber(*sweep_max_rate));
  if (sweep_points != 8) kv("sweep.points", std::to_string(sweep_points));
  if (!sweep_sim) kv("sweep.sim", "false");
  if (sim_abort_latency != 3000) {
    kv("sweep.abort_latency", JsonNumber(sim_abort_latency));
  }
  if (sim_messages) kv("sim.messages", std::to_string(*sim_messages));
  if (sim_seed != 1) kv("sim.seed", std::to_string(sim_seed));
  if (condis != CondisMode::kCutThrough) kv("sim.condis", "store-forward");
  if (sim_max_events) kv("sim.max_events", std::to_string(*sim_max_events));
  return out;
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
    for (const auto& [key, value] : section.values) {
      try {
        if (key == "system") {
          s.system = value;
        } else if (key == "icn2_topology") {
          s.icn2_override = ParseTopologySpec(value);
        } else if (key == "analyses") {
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
        } else if (key == "rate") {
          s.rate = ParseDoubleKey(key, value);
        } else if (key == "deadline_ms") {
          s.deadline_ms = ParseDoubleKey(key, value);
        } else if (key == "workload.pattern") {
          s.workload.pattern = ParseWorkloadPattern(value);
        } else if (key == "workload.locality") {
          s.workload.locality = ParseDoubleKey(key, value);
        } else if (key == "workload.hotspot_fraction") {
          s.workload.hotspot_fraction = ParseDoubleKey(key, value);
        } else if (key == "workload.hotspot_node") {
          s.workload.hotspot_node = ParseIntKey(key, value);
        } else if (key == "workload.msg_len") {
          s.workload.msg_len = MessageLength::Parse(value);
        } else if (key == "workload.arrival") {
          s.workload.arrival = ArrivalProcess::Parse(value);
        } else if (key.rfind("workload.rate.", 0) == 0) {
          const std::string idx_tok =
              key.substr(std::string("workload.rate.").size());
          const auto idx = ParseFullInteger<int>(idx_tok);
          if (!idx || *idx < 0) {
            throw std::invalid_argument("bad cluster index in '" + key + "'");
          }
          s.workload.rate_scale.emplace_back(*idx,
                                             ParseDoubleKey(key, value));
        } else if (key.rfind("model.", 0) == 0) {
          ApplyModelKey(s.model, key, value);
        } else if (key == "sweep.max_rate") {
          s.sweep_max_rate = ParseDoubleKey(key, value);
        } else if (key == "sweep.points") {
          // Saturate, not wrap: 2^32 + 1 points must not validate as 1.
          s.sweep_points = static_cast<int>(std::clamp<std::int64_t>(
              ParseIntKey(key, value), std::numeric_limits<int>::min(),
              std::numeric_limits<int>::max()));
        } else if (key == "sweep.sim") {
          s.sweep_sim = ParseBool(key, value);
        } else if (key == "sweep.abort_latency") {
          s.sim_abort_latency = ParseDoubleKey(key, value);
        } else if (key == "sim.messages") {
          s.sim_messages = ParseIntKey(key, value);
        } else if (key == "sim.max_events") {
          s.sim_max_events = ParseIntKey(key, value);
        } else if (key == "sim.seed") {
          s.sim_seed = ParseUint64Key(key, value);
        } else if (key == "sim.condis") {
          if (value == "cut-through") s.condis = CondisMode::kCutThrough;
          else if (value == "store-forward") s.condis = CondisMode::kStoreForward;
          else BadEnum(key, value, "cut-through or store-forward");
        } else {
          throw std::invalid_argument(
              "unknown scenario key '" + key +
              "' (see src/api/scenario.h for the accepted keys)");
        }
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        if (what.rfind("config line", 0) == 0) throw;
        IniFail(section.KeyLine(key), what);
      }
    }
    try {
      s.Validate();
    } catch (const std::invalid_argument& e) {
      IniFail(section.line, e.what());
    }
    // The rate_scale map iterates in lexicographic key order; canonicalize
    // to numeric cluster order so Serialize is deterministic and equality
    // ignores spelling order. Distinct spellings of one index ("rate.3" and
    // "rate.03") slip past the tokenizer's duplicate-key check but would
    // serialize as a genuine duplicate key — reject them here.
    std::sort(s.workload.rate_scale.begin(), s.workload.rate_scale.end());
    for (std::size_t i = 1; i < s.workload.rate_scale.size(); ++i) {
      if (s.workload.rate_scale[i].first ==
          s.workload.rate_scale[i - 1].first) {
        IniFail(section.line,
                "duplicate cluster index in 'workload.rate." +
                    std::to_string(s.workload.rate_scale[i].first) + "'");
      }
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
