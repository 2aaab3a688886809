#include "config/config_parser.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/ini.h"
#include "common/parse_num.h"
#include "system/presets.h"
#include "topology/topology.h"
#include "topology/topology_spec.h"

namespace coc {
namespace {

using Section = IniSection;

[[noreturn]] void Fail(int line, const std::string& what) {
  IniFail(line, what);
}

/// Line-level parse via the shared tokenizer plus this format's section
/// kinds and keys (the tokenizer accepts any; scenario files use others).
std::vector<Section> Tokenize(const std::string& text) {
  // The keys each section kind reads; [system]'s workload.* keys go to
  // WorkloadOverlay's rows.
  static const std::map<std::string, std::vector<std::string_view>>
      kSectionKeys = {
          {"system",
           {"m", "icn2", "icn2_topology", "message_flits", "flit_bytes",
            "workload."}},
          {"network", {"bandwidth", "network_latency", "switch_latency"}},
          {"clusters",
           {"count", "n", "topology", "ecn1_topology", "icn1", "ecn1"}}};
  std::vector<Section> sections = ParseIniSections(text);
  for (const Section& s : sections) {
    const auto kind = kSectionKeys.find(s.kind);
    if (kind == kSectionKeys.end()) {
      Fail(s.line, "unknown section kind '" + s.kind + "'");
    }
    if (s.kind == "network" && s.name.empty()) {
      Fail(s.line, "[network ...] needs a name");
    }
    const std::vector<std::string_view>& keys = kind->second;
    for (const auto& [line, entry] : s.ByLine()) {
      const std::string& key = entry->first;
      if (std::none_of(keys.begin(), keys.end(), [&key](std::string_view k) {
            return IniKeyMatches(k, key);
          })) {
        std::vector<std::string_view> names = keys;
        if (s.kind == "system") WorkloadOverlay::KeyNames(names);
        const std::string header =
            s.kind + (s.name.empty() ? "" : " ") + s.name;
        Fail(line, UnknownIniKey("key", key, " in [" + header + "]", names));
      }
    }
  }
  return sections;
}

const std::string& ToName(const Section& s, const std::string& key) {
  const auto it = s.values.find(key);
  if (it == s.values.end()) {
    Fail(s.line, "section is missing key '" + key + "'");
  }
  return it->second;
}

/// Runs `parse` on the key's value, pointing a failure at the key's own line.
template <typename Parse>
auto AtKeyLine(const Section& s, const std::string& key, Parse parse) {
  const std::string& value = ToName(s, key);
  try {
    return parse(key, value);
  } catch (const std::invalid_argument& e) {
    Fail(s.KeyLine(key), e.what());
  }
}

double ToDouble(const Section& s, const std::string& key) {
  return AtKeyLine(s, key, ParseKeyDouble);
}

int ToInt(const Section& s, const std::string& key) {
  return AtKeyLine(s, key, ParseKeyInteger<int>);
}

}  // namespace

Experiment ParseExperiment(const std::string& text) {
  const auto sections = Tokenize(text);

  const Section* system = nullptr;
  std::map<std::string, NetworkCharacteristics> networks;
  std::vector<const Section*> cluster_sections;
  for (const auto& s : sections) {
    if (s.kind == "system") {
      if (system != nullptr) Fail(s.line, "duplicate [system] section");
      system = &s;
    } else if (s.kind == "network") {
      if (networks.count(s.name) != 0) {
        Fail(s.line, "duplicate network '" + s.name + "'");
      }
      NetworkCharacteristics net{ToDouble(s, "bandwidth"),
                                 ToDouble(s, "network_latency"),
                                 ToDouble(s, "switch_latency")};
      net.Validate();
      networks.emplace(s.name, net);
    } else {
      cluster_sections.push_back(&s);
    }
  }
  if (system == nullptr) {
    throw std::invalid_argument("config: missing [system] section");
  }
  if (cluster_sections.empty()) {
    throw std::invalid_argument("config: no [clusters] sections");
  }

  auto net_by_name = [&](const Section& s,
                         const std::string& key) -> NetworkCharacteristics {
    const std::string name = ToName(s, key);
    const auto it = networks.find(name);
    if (it == networks.end()) {
      Fail(s.line, "unknown network '" + name + "' for key '" + key + "'");
    }
    return it->second;
  };

  auto topo_by_key = [](const Section& s,
                        const std::string& key) -> std::optional<TopologySpec> {
    const auto it = s.values.find(key);
    if (it == s.values.end()) return std::nullopt;
    try {
      return ParseTopologySpec(it->second);
    } catch (const std::exception& e) {
      Fail(s.line, e.what());
    }
  };

  const int m = ToInt(*system, "m");
  if (m < 4 || m % 2 != 0) {
    Fail(system->KeyLine("m"), "switch arity m must be even and >= 4");
  }
  const std::optional<TopologySpec> icn2_topo =
      topo_by_key(*system, "icn2_topology");
  // Bound the cluster list before any of it is built: each cluster takes
  // one ICN2 slot, no topology has more than kMaxTopologyNodes, and the
  // ICN2 that the summed count resolves (SystemConfig's rule) must hold
  // them all; a failure names the last count's line.
  std::vector<int> counts;
  std::int64_t total_clusters = 0;
  std::string makes;
  for (const Section* cs : cluster_sections) {
    const int count =
        cs->values.count("count") != 0 ? ToInt(*cs, "count") : 1;
    if (count < 1) Fail(cs->line, "count must be >= 1");
    counts.push_back(count);
    total_clusters += count;
    makes = "count = " + std::to_string(count) + " makes " +
            std::to_string(total_clusters) + " clusters, ";
    if (total_clusters > kMaxTopologyNodes) {
      Fail(cs->KeyLine("count"),
           makes + "more than the 2^22 an ICN2 can connect");
    }
  }
  try {
    CheckIcn2Capacity(
        *BuildTopology(ResolveIcn2Spec(icn2_topo, m, total_clusters)),
        total_clusters);
  } catch (const std::invalid_argument& e) {
    Fail(cluster_sections.back()->KeyLine("count"),
         makes + "which the ICN2 cannot hold: " + e.what());
  }
  std::vector<ClusterConfig> clusters;
  for (std::size_t k = 0; k < cluster_sections.size(); ++k) {
    const Section* cs = cluster_sections[k];
    ClusterConfig cluster{cs->values.count("n") != 0 ? ToInt(*cs, "n") : 0,
                          net_by_name(*cs, "icn1"), net_by_name(*cs, "ecn1")};
    cluster.icn1_topo = topo_by_key(*cs, "topology");
    cluster.ecn1_topo = topo_by_key(*cs, "ecn1_topology");
    // A tree spec without its own depth falls back to the cluster's n; make
    // sure a depth exists somewhere so the error carries this line number.
    const auto depthless_tree = [](const std::optional<TopologySpec>& spec) {
      return spec.has_value() && spec->type == TopologySpec::Type::kTree &&
             spec->n == 0;
    };
    if (cluster.n == 0 &&
        (!cluster.icn1_topo.has_value() || depthless_tree(cluster.icn1_topo))) {
      Fail(cs->line,
           "section needs 'n = DEPTH' or a topology with an explicit size "
           "(e.g. topology = tree:2)");
    }
    if (cluster.n == 0 && depthless_tree(cluster.ecn1_topo)) {
      Fail(cs->line,
           "ecn1_topology = tree needs 'n = DEPTH' or an explicit depth "
           "(e.g. tree:2)");
    }
    clusters.insert(clusters.end(), static_cast<std::size_t>(counts[k]),
                    cluster);
  }

  WorkloadOverlay overlay;
  for (const auto& [line, entry] : system->ByLine()) {
    if (entry->first.rfind("workload.", 0) != 0) continue;
    AtKeyLine(*system, entry->first, [&overlay](const std::string& k,
                                                const std::string& v) {
      overlay.Set(k, v);
    });
  }

  const MessageFormat msg{ToInt(*system, "message_flits"),
                          ToDouble(*system, "flit_bytes")};
  Experiment exp{SystemConfig(m, std::move(clusters),
                              net_by_name(*system, "icn2"), msg, icn2_topo),
                 Workload{}};
  // System-dependent checks (the hotspot node and rate indices against this
  // system, the pattern conflicts) run once the SystemConfig exists; they
  // carry the [system] section's line so a bad workload fails here, at
  // parse time, instead of deep inside the model.
  try {
    exp.workload = overlay.ApplyTo(Workload{}, exp.system);
  } catch (const std::invalid_argument& e) {
    Fail(system->line,
         std::string(e.what()) + " (check the workload.* keys)");
  }
  return exp;
}

Experiment LoadExperiment(const std::string& path_or_preset) {
  if (path_or_preset.rfind("preset:", 0) == 0) {
    std::string rest = path_or_preset.substr(7);
    MessageFormat msg{32, 256};
    const auto colon = rest.find(':');
    if (colon != std::string::npos) {
      const std::string fmt = rest.substr(colon + 1);
      rest = rest.substr(0, colon);
      const auto colon2 = fmt.find(':');
      const auto m = ParseFullInteger<int>(fmt.substr(0, colon2));
      const auto dm = colon2 == std::string::npos
                          ? std::nullopt
                          : ParseFullDouble(fmt.substr(colon2 + 1));
      if (!m || !dm) {
        throw std::invalid_argument("preset '" + path_or_preset +
                                    "': expected preset:NAME:M:dm with "
                                    "integer M and numeric dm");
      }
      msg.length_flits = *m;
      msg.flit_bytes = *dm;
    }
    if (rest == "1120") return Experiment{MakeSystem1120(msg), Workload{}};
    if (rest == "544") return Experiment{MakeSystem544(msg), Workload{}};
    if (rest == "small") return Experiment{MakeSmallSystem(msg), Workload{}};
    if (rest == "tiny") return Experiment{MakeTinySystem(msg), Workload{}};
    if (rest == "mixed") {
      return Experiment{MakeMixedTopologySystem(msg), Workload{}};
    }
    if (rest == "dragonfly") {
      return Experiment{MakeDragonflySystem(msg), Workload{}};
    }
    throw std::invalid_argument(
        "unknown preset '" + rest +
        "' (use 1120, 544, small, tiny, mixed or dragonfly)");
  }
  std::ifstream in(path_or_preset);
  if (!in) {
    throw std::invalid_argument("cannot open config file: " + path_or_preset);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseExperiment(buf.str());
}

SystemConfig ParseSystemConfig(const std::string& text) {
  return ParseExperiment(text).system;
}

SystemConfig LoadSystem(const std::string& path_or_preset) {
  return LoadExperiment(path_or_preset).system;
}

}  // namespace coc
