#include "oracle/icn2_census.h"

#include <vector>

namespace coc {

LinkDistribution RoutedIcn2Census(const Topology& icn2, std::int64_t c) {
  std::vector<double> weights(
      static_cast<std::size_t>(icn2.Links().max_links()) + 1, 0.0);
  std::vector<std::int64_t> route;  // reused: RouteInto appends, never shrinks
  for (std::int64_t src = 0; src < c; ++src) {
    for (std::int64_t dst = 0; dst < c; ++dst) {
      if (src == dst) continue;
      route.clear();
      icn2.RouteInto(src, dst, /*entropy=*/0, route);
      weights[route.size()] += 1.0;
    }
  }
  if (c < 2) weights[2] = 1.0;  // degenerate single-cluster system
  return LinkDistribution(weights);
}

}  // namespace coc
