// The per-channel tables the topology families once stored: one ChannelInfo
// per directed channel, filled by each family's constructor loop. Families
// now decode Channel(id) arithmetically; these loops are kept here, with the
// private id helpers they called restated beside them, as the test oracle
// the decoders must match field by field for every id (as LatencyModel is
// kept for CompiledModel).
#pragma once

#include <cstdint>
#include <vector>

#include "topology/topology.h"

namespace coc {

/// m-port n-tree: [node up | node down | per level 1..n-1: up | down].
std::vector<ChannelInfo> TreeChannelTable(int m, int n);

/// Full crossbar: [node up | node down].
std::vector<ChannelInfo> CrossbarChannelTable(std::int64_t ports);

/// k-ary d-dimensional mesh/torus: [node up | node down | per dimension a
/// +direction block then a -direction block]. `torus` is the requested
/// family; radix-2 tori degenerate to meshes as in KAryMesh.
std::vector<ChannelInfo> MeshChannelTable(int radix, int dims, bool torus);

/// Balanced dragonfly: [node up | node down | per group the a(a-1) local
/// links | per group the a h global links]. Routing does not change it.
std::vector<ChannelInfo> DragonflyChannelTable(int a, int p, int h);

}  // namespace coc
