#include "config/config_parser.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/ini.h"
#include "common/parse_num.h"
#include "system/presets.h"
#include "topology/topology_spec.h"

namespace coc {
namespace {

using Section = IniSection;

[[noreturn]] void Fail(int line, const std::string& what) {
  IniFail(line, what);
}

/// Line-level parse via the shared tokenizer plus this format's section-kind
/// validation (the tokenizer accepts any kind; scenario files use others).
std::vector<Section> Tokenize(const std::string& text) {
  std::vector<Section> sections = ParseIniSections(text);
  for (const Section& s : sections) {
    if (s.kind != "system" && s.kind != "network" && s.kind != "clusters") {
      Fail(s.line, "unknown section kind '" + s.kind + "'");
    }
    if (s.kind == "network" && s.name.empty()) {
      Fail(s.line, "[network ...] needs a name");
    }
  }
  return sections;
}

double ToDouble(const Section& s, const std::string& key) {
  const auto it = s.values.find(key);
  if (it == s.values.end()) {
    Fail(s.line, "section is missing key '" + key + "'");
  }
  try {
    std::size_t pos = 0;
    const double v = std::stod(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument("");
    return v;
  } catch (...) {
    Fail(s.line, "key '" + key + "' is not a number: " + it->second);
  }
}

int ToInt(const Section& s, const std::string& key) {
  const double v = ToDouble(s, key);
  const int i = static_cast<int>(v);
  if (static_cast<double>(i) != v) {
    Fail(s.line, "key '" + key + "' must be an integer");
  }
  return i;
}

std::string ToName(const Section& s, const std::string& key) {
  const auto it = s.values.find(key);
  if (it == s.values.end()) {
    Fail(s.line, "section is missing key '" + key + "'");
  }
  return it->second;
}

// --- workload.* keys -------------------------------------------------------

/// Levenshtein distance, for the did-you-mean suggestion on unknown
/// workload.* keys.
std::size_t EditDistance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t prev = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t del = row[j] + 1;
      const std::size_t ins = row[j - 1] + 1;
      const std::size_t sub = prev + (a[i - 1] == b[j - 1] ? 0 : 1);
      prev = row[j];
      row[j] = std::min({del, ins, sub});
    }
  }
  return row[b.size()];
}

const char* const kWorkloadKeys[] = {
    "workload.pattern",         "workload.locality",
    "workload.hotspot_fraction", "workload.hotspot_node",
    "workload.msg_len",          "workload.rate.<cluster>",
    "workload.arrival",
};

[[noreturn]] void FailUnknownWorkloadKey(int line, const std::string& key) {
  // Compare against the known key names; the per-cluster rate family is
  // matched with the user's own index substituted for "<cluster>", so
  // "workload.rates.0" suggests "workload.rate.<cluster>" and not an
  // unrelated scalar key.
  const auto last_dot = key.rfind('.');
  const std::string suffix =
      last_dot == std::string::npos ? "" : key.substr(last_dot + 1);
  std::string best;
  std::size_t best_dist = std::string::npos;
  for (const std::string candidate : kWorkloadKeys) {
    std::string comparable = candidate;
    const auto ph = comparable.find("<cluster>");
    if (ph != std::string::npos && !suffix.empty()) {
      comparable.replace(ph, std::string("<cluster>").size(), suffix);
    }
    const std::size_t d = EditDistance(key, comparable);
    if (d < best_dist) {
      best_dist = d;
      best = candidate;
    }
  }
  Fail(line, "unknown workload key '" + key + "' (did you mean '" + best +
                 "'?)");
}

/// Extracts the workload from the [system] section's workload.* keys.
/// `num_clusters` sizes and validates the per-cluster rate table.
Workload ParseWorkloadKeys(const Section& system, int num_clusters) {
  Workload wl;
  bool have_rates = false;
  for (const auto& [key, value] : system.values) {
    if (key.rfind("workload.", 0) != 0) continue;
    try {
      if (key == "workload.pattern") {
        wl.pattern = ParseWorkloadPattern(value);
      } else if (key == "workload.locality") {
        wl.locality_fraction = ToDouble(system, key);
      } else if (key == "workload.hotspot_fraction") {
        wl.hotspot_fraction = ToDouble(system, key);
      } else if (key == "workload.hotspot_node") {
        wl.hotspot_node = ToInt(system, key);
      } else if (key == "workload.msg_len") {
        wl.message_length = MessageLength::Parse(value);
      } else if (key == "workload.arrival") {
        wl.arrival = ArrivalProcess::Parse(value);
      } else if (key.rfind("workload.rate.", 0) == 0) {
        const std::string idx_tok =
            key.substr(std::string("workload.rate.").size());
        const int idx = ParseFullInt(idx_tok).value_or(-1);
        if (idx < 0) {
          FailUnknownWorkloadKey(system.line, key);
        }
        if (idx >= num_clusters) {
          Fail(system.line, "workload.rate." + idx_tok +
                                ": cluster index out of range (system has " +
                                std::to_string(num_clusters) + " clusters)");
        }
        if (!have_rates) {
          wl.rate_scale.assign(static_cast<std::size_t>(num_clusters), 1.0);
          have_rates = true;
        }
        const double s = ToDouble(system, key);
        if (!(s >= 0)) Fail(system.line, "'" + key + "' must be >= 0");
        wl.rate_scale[static_cast<std::size_t>(idx)] = s;
      } else {
        FailUnknownWorkloadKey(system.line, key);
      }
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      // Re-wrap messages that lack a config line number.
      if (what.rfind("config line", 0) == 0) throw;
      Fail(system.line, what);
    }
  }
  return wl;
}

}  // namespace

Experiment ParseExperiment(const std::string& text) {
  const auto sections = Tokenize(text);

  const Section* system = nullptr;
  std::map<std::string, NetworkCharacteristics> networks;
  std::map<std::string, int> network_lines;
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
      network_lines.emplace(s.name, s.line);
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

  std::vector<ClusterConfig> clusters;
  for (const Section* cs : cluster_sections) {
    const int count =
        cs->values.count("count") != 0 ? ToInt(*cs, "count") : 1;
    if (count < 1) Fail(cs->line, "count must be >= 1");
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
    for (int i = 0; i < count; ++i) clusters.push_back(cluster);
  }

  const Workload workload =
      ParseWorkloadKeys(*system, static_cast<int>(clusters.size()));

  const MessageFormat msg{ToInt(*system, "message_flits"),
                          ToDouble(*system, "flit_bytes")};
  Experiment exp{SystemConfig(ToInt(*system, "m"), std::move(clusters),
                              net_by_name(*system, "icn2"), msg,
                              topo_by_key(*system, "icn2_topology")),
                 workload};
  // System-dependent workload validation (e.g. workload.hotspot_node against
  // the total node count) can only run once the SystemConfig exists; re-wrap
  // its failures with the [system] section's location so a bad value fails
  // here, at parse time, instead of deep inside the model's EffectiveU.
  try {
    exp.workload.Validate(exp.system);
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
      if (colon2 == std::string::npos) {
        throw std::invalid_argument(
            "preset message format must be preset:NAME:M:dm");
      }
      msg.length_flits = std::stoi(fmt.substr(0, colon2));
      msg.flit_bytes = std::stod(fmt.substr(colon2 + 1));
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
