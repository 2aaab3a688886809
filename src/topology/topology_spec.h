// Declarative topology description — the `topology=` knob of config files,
// presets, and the CLI.
//
// A spec is a small value object naming a topology family plus its
// parameters; SystemConfig resolves unset parameters against the system
// context (switch arity m, cluster tree depth, required node count), builds
// one immutable Topology per distinct resolved spec, and shares it between
// the analytical model and the simulator.
//
// Text syntax (ParseTopologySpec):
//   tree                  m-port n-tree; m/n inherited from the system
//   tree:3                ... with explicit depth n = 3
//   tree:m=8,n=2          ... fully explicit
//   crossbar              single switch sized to the network's node count
//   crossbar:16           ... with exactly 16 ports
//   mesh:4x2              k-ary d-dim mesh, radix 4, 2 dimensions
//   torus:4x2             ... with wrap-around links
//   mesh:radix=4,dims=2   key=value form of the same
//   mesh:4x2,tap=center   C/D tap at the center router instead of corner
//                         node 0 (cuts the mean access distance; the
//                         ROADMAP's non-uniform tap placement item)
//   dragonfly:4,2,2       balanced dragonfly: a=4 routers per group, p=2
//                         nodes per router, h=2 global links per router
//                         (g = a*h + 1 groups, palmtree global wiring)
//   dragonfly:a=4,p=2,h=2 key=value form of the same
//   dragonfly:4,2,2,routing=valiant
//                         Valiant group-level randomized routing instead of
//                         the default minimal (routing=min) l-g-l routing
//
// One parameter rule for every family: positional values come first (tree
// n; crossbar ports; mesh/torus RADIXxDIMS, which sets radix and dims;
// dragonfly a,p,h), then key=value pairs, so `tree:3,m=8` is tree m=8,n=3.
// Each parameter may be given once, in either spelling (`mesh:4x2,radix=8`
// is an error), and an empty token (`tree:m=8,`) is an error.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "topology/topology.h"

namespace coc {

struct TopologySpec {
  enum class Type : std::uint8_t {
    kTree,
    kCrossbar,
    kMesh,
    kTorus,
    kDragonfly,
  };
  /// Where the concentrator/dispatcher tap attaches (mesh/torus only; trees
  /// always tap the node-0 spine and crossbars have no interior distance).
  enum class Tap : std::uint8_t {
    kCorner,  ///< router 0, the all-zero coordinate (default)
    kCenter,  ///< the center router (coordinate radix/2 in every dimension)
  };
  /// Dragonfly routing mode (other families have a single oracle).
  enum class Routing : std::uint8_t {
    kMin,      ///< minimal l-g-l routing (default)
    kValiant,  ///< Valiant group-level randomization for inter-group traffic
  };

  Type type = Type::kTree;
  int m = 0;              ///< tree arity; 0 = inherit the system's m
  int n = 0;              ///< tree depth; 0 = derive from context
  std::int64_t ports = 0; ///< crossbar ports; 0 = fit the node count
  int radix = 0;          ///< mesh/torus k
  int dims = 0;           ///< mesh/torus d
  Tap tap = Tap::kCorner; ///< mesh/torus C/D tap placement
  int a = 0;              ///< dragonfly routers per group
  int p = 0;              ///< dragonfly nodes per router
  int h = 0;              ///< dragonfly global links per router
  Routing routing = Routing::kMin;  ///< dragonfly routing mode

  friend bool operator==(const TopologySpec&, const TopologySpec&) = default;

  static TopologySpec Tree(int m, int n) {
    TopologySpec s;
    s.type = Type::kTree;
    s.m = m;
    s.n = n;
    return s;
  }
  static TopologySpec Crossbar(std::int64_t ports = 0) {
    TopologySpec s;
    s.type = Type::kCrossbar;
    s.ports = ports;
    return s;
  }
  static TopologySpec Mesh(int radix, int dims, bool torus = false,
                           Tap tap = Tap::kCorner) {
    TopologySpec s;
    s.type = torus ? Type::kTorus : Type::kMesh;
    s.radix = radix;
    s.dims = dims;
    s.tap = tap;
    return s;
  }
  static TopologySpec Dragonfly(int a, int p, int h,
                                Routing routing = Routing::kMin) {
    TopologySpec s;
    s.type = Type::kDragonfly;
    s.a = a;
    s.p = p;
    s.h = h;
    s.routing = routing;
    return s;
  }

  /// Canonical text form (round-trips through ParseTopologySpec); doubles as
  /// the dedup cache key once the spec is fully resolved.
  std::string ToString() const;
};

/// Parses the text syntax above. Throws std::invalid_argument with a
/// descriptive message on malformed input.
TopologySpec ParseTopologySpec(const std::string& text);

/// Builds the immutable topology for a *fully resolved* spec (no zero
/// parameters left). Throws std::invalid_argument on invalid parameters.
std::shared_ptr<const Topology> BuildTopology(const TopologySpec& spec);

/// Resolves context-dependent parameters: tree m = 0 inherits `system_m`,
/// tree n = 0 takes `default_depth` (must be > 0 then), crossbar ports = 0
/// takes `fit_nodes` (must be > 0 then). Mesh/torus require explicit
/// radix/dims, dragonfly explicit a/p/h; both are returned unchanged.
TopologySpec ResolveTopologySpec(TopologySpec spec, int system_m,
                                 int default_depth, std::int64_t fit_nodes);

}  // namespace coc
