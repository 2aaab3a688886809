#include "topology/full_crossbar.h"

#include <stdexcept>

namespace coc {

FullCrossbar::FullCrossbar(std::int64_t ports)
    : num_nodes_(ports),
      links_(std::vector<double>{0.0, 0.0, 1.0}),
      access_links_(std::vector<double>{0.0, 1.0}) {
  if (ports < 2) {
    throw std::invalid_argument("crossbar requires at least 2 ports");
  }
  if (ports > kMaxTopologyNodes) {
    throw std::invalid_argument("crossbar too large (> 2^22 nodes)");
  }
}

void FullCrossbar::RouteInto(std::int64_t src, std::int64_t dst,
                             std::uint64_t /*entropy*/,
                             std::vector<std::int64_t>& out) const {
  if (src == dst) return;
  out.push_back(src);
  out.push_back(num_nodes_ + dst);
}

void FullCrossbar::RouteToTapInto(std::int64_t src,
                                  std::vector<std::int64_t>& out) const {
  out.push_back(src);
}

void FullCrossbar::RouteFromTapInto(std::int64_t dst,
                                    std::vector<std::int64_t>& out) const {
  out.push_back(num_nodes_ + dst);
}

}  // namespace coc
