// Text description format for cluster-of-clusters systems, used by the
// coc_cli tool so systems can be described without recompiling.
//
// Format (INI-like; '#' starts a comment):
//
//   [system]
//   m = 8                  # switch arity (even, >= 4)
//   icn2 = net1            # name of a [network ...] section
//   message_flits = 32
//   flit_bytes = 256
//
//   [network net1]
//   bandwidth = 500        # bytes/us
//   network_latency = 0.01
//   switch_latency = 0.02
//
//   [network net2]
//   bandwidth = 250
//   network_latency = 0.05
//   switch_latency = 0.01
//
//   [clusters]             # repeatable; each adds `count` clusters
//   count = 12             #   (at most 2^22 clusters in all)
//   n = 1
//   icn1 = net1
//   ecn1 = net2
//
// Topologies default to the paper's m-port n-tree everywhere but are
// pluggable per network (see src/topology/topology_spec.h for the spec
// syntax):
//
//   [system]
//   icn2_topology = crossbar        # optional; default tree, auto depth
//   ...
//   [clusters]
//   topology = mesh:4x2             # ICN1 (defines the cluster node count;
//                                   # 'n' may then be omitted)
//   ecn1_topology = crossbar        # optional; default mirrors the ICN1 spec
//   ...
//
// The workload — one shared abstraction for model and simulator — is set by
// `workload.*` keys of the [system] section (all optional; the default is
// the paper's uniform assumption 2). WorkloadOverlay in workload/workload.h
// lists the keys and their semantics, which scenario files and the CLI's
// workload flags share:
//
//   [system]
//   workload.pattern = hotspot
//   workload.hotspot_fraction = 0.2
//   workload.rate.3 = 2.5
//
// Alternatively the string "preset:1120", "preset:544", "preset:small",
// "preset:tiny" or "preset:mixed" (heterogeneous topology families) selects
// a built-in configuration (message format given by the optional
// "preset:NAME:M:dm" suffix).
#pragma once

#include <string>

#include "system/system_config.h"
#include "workload/workload.h"

namespace coc {

/// A parsed experiment description: the system plus the workload it runs.
struct Experiment {
  SystemConfig system;
  Workload workload;
};

/// Parses the text format above. Throws std::invalid_argument with a
/// line-numbered message on malformed input.
Experiment ParseExperiment(const std::string& text);

/// Loads an experiment from a file path or a "preset:..." specifier
/// (presets carry the default uniform workload).
Experiment LoadExperiment(const std::string& path_or_preset);

/// System-only conveniences over the Experiment entry points.
SystemConfig ParseSystemConfig(const std::string& text);
SystemConfig LoadSystem(const std::string& path_or_preset);

}  // namespace coc
