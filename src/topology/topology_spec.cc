#include "topology/topology_spec.h"

#include <algorithm>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <vector>

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

/// Splits a parameter list at commas; an empty token is an error.
std::vector<std::string> Tokens(const std::string& text,
                                const std::string& params) {
  std::vector<std::string> tokens;
  for (std::size_t start = 0;;) {
    const auto comma = params.find(',', start);
    tokens.push_back(params.substr(start, comma - start));
    if (tokens.back().empty()) Fail(text, "empty parameter");
    if (comma == std::string::npos) return tokens;
    start = comma + 1;
  }
}

/// The one parameter rule: positional values first, taking the keys in
/// `positional` in order, then key=value pairs whose key is in `keys`.
/// Calls set(key, value) per parameter; a parameter given twice, in either
/// spelling, is an error.
template <class Set>
void ReadParams(const std::string& text, const std::string& family,
                const std::vector<std::string>& tokens,
                std::initializer_list<std::string_view> positional,
                std::initializer_list<std::string_view> keys, Set&& set) {
  std::vector<std::string> seen;
  bool keyed = false;
  for (const std::string& token : tokens) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      if (keyed) Fail(text, "positional '" + token + "' after key=value");
      if (seen.size() == positional.size()) {
        Fail(text, family + " takes " + std::to_string(positional.size()) +
                       " positional parameter(s), got extra '" + token + "'");
      }
      seen.emplace_back(positional.begin()[seen.size()]);
    } else {
      keyed = true;
      seen.push_back(token.substr(0, eq));
      if (std::find(keys.begin(), keys.end(), seen.back()) == keys.end()) {
        Fail(text, "unknown " + family + " parameter '" + seen.back() + "'");
      }
    }
    if (std::count(seen.begin(), seen.end(), seen.back()) > 1) {
      Fail(text, "parameter '" + seen.back() + "' given twice");
    }
    set(seen.back(), eq == std::string::npos ? token : token.substr(eq + 1));
  }
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
  std::vector<std::string> tokens;
  if (colon != std::string::npos) tokens = Tokens(text, text.substr(colon + 1));
  using Key = const std::string&;

  TopologySpec spec;
  if (head == "tree") {
    spec.type = TopologySpec::Type::kTree;
    ReadParams(text, head, tokens, {"n"}, {"m", "n"}, [&](Key key, Key value) {
      (key == "m" ? spec.m : spec.n) = ToSmallCount(text, value);
    });
    return spec;
  }
  if (head == "crossbar") {
    spec.type = TopologySpec::Type::kCrossbar;
    ReadParams(text, head, tokens, {"ports"}, {"ports"},
               [&](Key, Key value) { spec.ports = ToCount(text, value); });
    return spec;
  }
  if (head == "mesh" || head == "torus") {
    spec.type = head == "mesh" ? TopologySpec::Type::kMesh
                               : TopologySpec::Type::kTorus;
    // The positional RADIXxDIMS token holds two positional values.
    if (!tokens.empty() && tokens[0].find('=') == std::string::npos) {
      const auto x = tokens[0].find('x');
      if (x == std::string::npos) Fail(text, "expected RADIXxDIMS");
      tokens.insert(tokens.begin() + 1, tokens[0].substr(x + 1));
      tokens[0].resize(x);
    }
    ReadParams(text, head, tokens, {"radix", "dims"}, {"radix", "dims", "tap"},
               [&](Key key, Key value) {
                 if (key != "tap") {
                   (key == "radix" ? spec.radix : spec.dims) =
                       ToSmallCount(text, value);
                 } else if (value == "corner" || value == "center") {
                   spec.tap = value == "center" ? TopologySpec::Tap::kCenter
                                                : TopologySpec::Tap::kCorner;
                 } else {
                   Fail(text, "tap must be corner or center, got '" + value +
                                  "'");
                 }
               });
    if (spec.radix == 0 || spec.dims == 0) {
      Fail(text, "mesh/torus need both radix and dims");
    }
    return spec;
  }
  if (head == "dragonfly") {
    spec.type = TopologySpec::Type::kDragonfly;
    ReadParams(text, head, tokens, {"a", "p", "h"}, {"a", "p", "h", "routing"},
               [&](Key key, Key value) {
                 if (key != "routing") {
                   (key == "a" ? spec.a : key == "p" ? spec.p : spec.h) =
                       ToSmallCount(text, value);
                 } else if (value == "min" || value == "valiant") {
                   spec.routing = value == "valiant"
                                      ? TopologySpec::Routing::kValiant
                                      : TopologySpec::Routing::kMin;
                 } else {
                   Fail(text, "routing must be min or valiant, got '" + value +
                                  "'");
                 }
               });
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
