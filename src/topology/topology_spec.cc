#include "topology/topology_spec.h"

#include <limits>
#include <map>
#include <stdexcept>

#include "common/parse_num.h"
#include "topology/dragonfly.h"
#include "topology/full_crossbar.h"
#include "topology/k_ary_mesh.h"
#include "topology/m_port_n_tree.h"

namespace coc {
namespace {

[[noreturn]] void Fail(const std::string& text, const std::string& why) {
  throw std::invalid_argument("topology spec '" + text + "': " + why);
}

std::int64_t ToCount(const std::string& text, const std::string& token) {
  const auto v = ParseFullInteger<std::int64_t>(token);
  if (!v || *v <= 0) Fail(text, "'" + token + "' is not a positive integer");
  return *v;
}

/// ToCount for int-typed spec fields: rejects values past INT_MAX instead
/// of letting a narrowing cast wrap them into a different (valid) value.
int ToSmallCount(const std::string& text, const std::string& token) {
  const std::int64_t v = ToCount(text, token);
  if (v > std::numeric_limits<int>::max()) {
    Fail(text, "'" + token + "' is out of range");
  }
  return static_cast<int>(v);
}

/// Parses "k1=v1,k2=v2" into a map; every value must be a positive integer.
std::map<std::string, std::int64_t> KeyValues(const std::string& text,
                                              const std::string& params) {
  std::map<std::string, std::int64_t> out;
  std::size_t start = 0;
  while (start < params.size()) {
    auto comma = params.find(',', start);
    if (comma == std::string::npos) comma = params.size();
    const std::string pair = params.substr(start, comma - start);
    const auto eq = pair.find('=');
    if (eq == std::string::npos) Fail(text, "expected key=value: " + pair);
    out[pair.substr(0, eq)] = ToCount(text, pair.substr(eq + 1));
    start = comma + 1;
  }
  return out;
}

}  // namespace

std::string TopologySpec::ToString() const {
  switch (type) {
    // Unset (0) tree and crossbar parameters are omitted: the parser
    // rejects an explicit 0.
    case Type::kTree:
      if (m == 0) return n == 0 ? "tree" : "tree:n=" + std::to_string(n);
      return "tree:m=" + std::to_string(m) +
             (n == 0 ? "" : ",n=" + std::to_string(n));
    case Type::kCrossbar:
      return ports == 0 ? "crossbar" : "crossbar:" + std::to_string(ports);
    case Type::kMesh:
      return "mesh:" + std::to_string(radix) + "x" + std::to_string(dims) +
             (tap == Tap::kCenter ? ",tap=center" : "");
    case Type::kTorus:
      return "torus:" + std::to_string(radix) + "x" + std::to_string(dims) +
             (tap == Tap::kCenter ? ",tap=center" : "");
    case Type::kDragonfly:
      return "dragonfly:" + std::to_string(a) + "," + std::to_string(p) +
             "," + std::to_string(h) +
             (routing == Routing::kValiant ? ",routing=valiant" : "");
  }
  return "?";
}

TopologySpec ParseTopologySpec(const std::string& text) {
  const auto colon = text.find(':');
  const std::string head = text.substr(0, colon);
  const std::string params =
      colon == std::string::npos ? "" : text.substr(colon + 1);

  TopologySpec spec;
  if (head == "tree") {
    spec.type = TopologySpec::Type::kTree;
    if (!params.empty()) {
      if (params.find('=') == std::string::npos) {
        spec.n = ToSmallCount(text, params);
      } else {
        for (const auto& [key, value] : KeyValues(text, params)) {
          if (value > std::numeric_limits<int>::max()) {
            Fail(text, "'" + key + "' is out of range");
          }
          if (key == "m") {
            spec.m = static_cast<int>(value);
          } else if (key == "n") {
            spec.n = static_cast<int>(value);
          } else {
            Fail(text, "unknown tree parameter '" + key + "'");
          }
        }
      }
    }
    return spec;
  }
  if (head == "crossbar") {
    spec.type = TopologySpec::Type::kCrossbar;
    if (!params.empty()) spec.ports = ToCount(text, params);
    return spec;
  }
  if (head == "mesh" || head == "torus") {
    spec.type = head == "mesh" ? TopologySpec::Type::kMesh
                               : TopologySpec::Type::kTorus;
    if (params.empty()) Fail(text, "mesh/torus need RADIXxDIMS parameters");
    // Comma-separated tokens: an optional leading RADIXxDIMS shorthand, then
    // key=value pairs (radix=, dims=, tap=corner|center).
    std::size_t start = 0;
    bool first = true;
    while (start <= params.size()) {
      auto comma = params.find(',', start);
      if (comma == std::string::npos) comma = params.size();
      const std::string token = params.substr(start, comma - start);
      start = comma + 1;
      const auto eq = token.find('=');
      if (eq == std::string::npos) {
        if (!first) Fail(text, "expected key=value: " + token);
        const auto x = token.find('x');
        if (x == std::string::npos) Fail(text, "expected RADIXxDIMS");
        spec.radix = ToSmallCount(text, token.substr(0, x));
        spec.dims = ToSmallCount(text, token.substr(x + 1));
      } else {
        const std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        if (key == "radix") {
          spec.radix = ToSmallCount(text, value);
        } else if (key == "dims") {
          spec.dims = ToSmallCount(text, value);
        } else if (key == "tap") {
          if (value == "corner") {
            spec.tap = TopologySpec::Tap::kCorner;
          } else if (value == "center") {
            spec.tap = TopologySpec::Tap::kCenter;
          } else {
            Fail(text, "tap must be corner or center, got '" + value + "'");
          }
        } else {
          Fail(text, "unknown mesh parameter '" + key + "'");
        }
      }
      first = false;
      if (comma == params.size()) break;
    }
    if (spec.radix == 0 || spec.dims == 0) {
      Fail(text, "mesh/torus need both radix and dims");
    }
    return spec;
  }
  if (head == "dragonfly") {
    spec.type = TopologySpec::Type::kDragonfly;
    if (params.empty()) Fail(text, "dragonfly needs A,P,H parameters");
    // Comma-separated tokens: up to three positional ints (a, p, h in that
    // order), then key=value pairs (a=, p=, h=, routing=min|valiant).
    // Positional tokens after a key=value pair are rejected (mirroring the
    // mesh parser) — they would silently overwrite the keyed values.
    int positional = 0;
    bool keyed = false;
    std::size_t start = 0;
    while (start <= params.size()) {
      auto comma = params.find(',', start);
      if (comma == std::string::npos) comma = params.size();
      const std::string token = params.substr(start, comma - start);
      start = comma + 1;
      const auto eq = token.find('=');
      if (eq == std::string::npos) {
        if (keyed) Fail(text, "expected key=value: " + token);
        const int value = ToSmallCount(text, token);
        switch (positional++) {
          case 0: spec.a = value; break;
          case 1: spec.p = value; break;
          case 2: spec.h = value; break;
          default: Fail(text, "dragonfly takes three positional parameters "
                              "(a, p, h), got extra '" + token + "'");
        }
      } else {
        keyed = true;
        const std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        if (key == "a") {
          spec.a = ToSmallCount(text, value);
        } else if (key == "p") {
          spec.p = ToSmallCount(text, value);
        } else if (key == "h") {
          spec.h = ToSmallCount(text, value);
        } else if (key == "routing") {
          if (value == "min") {
            spec.routing = TopologySpec::Routing::kMin;
          } else if (value == "valiant") {
            spec.routing = TopologySpec::Routing::kValiant;
          } else {
            Fail(text, "routing must be min or valiant, got '" + value + "'");
          }
        } else {
          Fail(text, "unknown dragonfly parameter '" + key + "'");
        }
      }
      if (comma == params.size()) break;
    }
    if (spec.a == 0 || spec.p == 0 || spec.h == 0) {
      Fail(text, "dragonfly needs all of a, p and h");
    }
    return spec;
  }
  Fail(text, "unknown topology type '" + head +
                 "' (use tree, crossbar, mesh, torus or dragonfly)");
}

std::shared_ptr<const Topology> BuildTopology(const TopologySpec& spec) {
  switch (spec.type) {
    case TopologySpec::Type::kTree:
      return std::make_shared<MPortNTree>(spec.m, spec.n);
    case TopologySpec::Type::kCrossbar:
      return std::make_shared<FullCrossbar>(spec.ports);
    case TopologySpec::Type::kMesh:
      return std::make_shared<KAryMesh>(
          spec.radix, spec.dims, false,
          spec.tap == TopologySpec::Tap::kCenter);
    case TopologySpec::Type::kTorus:
      return std::make_shared<KAryMesh>(
          spec.radix, spec.dims, true,
          spec.tap == TopologySpec::Tap::kCenter);
    case TopologySpec::Type::kDragonfly:
      return std::make_shared<Dragonfly>(
          spec.a, spec.p, spec.h,
          spec.routing == TopologySpec::Routing::kValiant
              ? Dragonfly::Routing::kValiant
              : Dragonfly::Routing::kMin);
  }
  throw std::invalid_argument("unknown topology type");
}

TopologySpec ResolveTopologySpec(TopologySpec spec, int system_m,
                                 int default_depth, std::int64_t fit_nodes) {
  switch (spec.type) {
    case TopologySpec::Type::kTree:
      if (spec.m == 0) spec.m = system_m;
      if (spec.n == 0) {
        if (default_depth <= 0) {
          throw std::invalid_argument("tree topology needs a depth");
        }
        spec.n = default_depth;
      }
      break;
    case TopologySpec::Type::kCrossbar:
      if (spec.ports == 0) {
        if (fit_nodes <= 0) {
          throw std::invalid_argument("crossbar topology needs a port count");
        }
        spec.ports = fit_nodes;
      }
      break;
    case TopologySpec::Type::kMesh:
    case TopologySpec::Type::kTorus:
      if (spec.radix == 0 || spec.dims == 0) {
        throw std::invalid_argument("mesh/torus topology needs radix and dims");
      }
      break;
    case TopologySpec::Type::kDragonfly:
      if (spec.a == 0 || spec.p == 0 || spec.h == 0) {
        throw std::invalid_argument("dragonfly topology needs a, p and h");
      }
      break;
  }
  return spec;
}

}  // namespace coc
