// Text description format for cluster-of-clusters systems, used by the
// coc_cli tool so systems can be described without recompiling.
//
// Format (INI-like; '#' starts a comment):
//
//   [system]
//   m = 8                       # switch arity (even, >= 4)
//   icn2 = net1                 # name of a [network ...] section
//   message_flits = 32
//   flit_bytes = 256
//   icn2_topology = crossbar    # optional; default tree, auto depth
//   workload.pattern = hotspot  # optional workload.* keys (the paper's
//                               #   uniform assumption 2 by default)
//
//   [network net1]              # one section per network name
//   bandwidth = 500             # bytes/us
//   network_latency = 0.01
//   switch_latency = 0.02
//
//   [clusters]                  # repeatable; each adds `count` clusters
//   count = 12                  #   (default 1; at most 2^22 in all)
//   n = 1                       # tree depth
//   icn1 = net1
//   ecn1 = net1
//   topology = mesh:4x2         # optional ICN1 (then 'n' may be omitted)
//   ecn1_topology = crossbar    # optional; default mirrors the ICN1 spec
//
// Topologies default to the paper's m-port n-tree; topology_spec.h has the
// spec syntax. Each section kind reads the keys its list in
// config_parser.cc names, and [system]'s workload.* keys go to
// WorkloadOverlay's rows (workload/workload.h), which scenario files and
// the CLI's workload flags share. Any other key is an error at its line.
//
// Alternatively "preset:NAME" (1120, 544, small, tiny, mixed or dragonfly)
// selects a built-in configuration, with the message format given by the
// optional "preset:NAME:M:dm" suffix.
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
