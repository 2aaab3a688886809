// The ICN2 census by route count: the reference the topology families'
// closed-form prefix censuses (Topology::PrefixJourneys) must reproduce.
//
// When C concentrators occupy the slot prefix [0, C) of a larger ICN2, the
// model's ICN2 journey distribution is the census of the occupied slots:
// every ordered pair of distinct slots routed once at entropy 0 and counted
// by its link count. This routes all C (C - 1) pairs, and its weights are
// sums of `+= 1.0`, which the closed forms' int64 counts must equal bit for
// bit once converted.
#pragma once

#include <cstdint>

#include "topology/link_distribution.h"
#include "topology/topology.h"

namespace coc {

/// The routed census of `icn2`'s slot prefix [0, c), weights summed by
/// repeated `+= 1.0`; a lone slot (c < 2) is one 2-link journey.
LinkDistribution RoutedIcn2Census(const Topology& icn2, std::int64_t c);

}  // namespace coc
