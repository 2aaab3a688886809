#include "oracle/channel_tables.h"

#include <cstddef>

namespace coc {
namespace {

std::size_t At(std::int64_t id) { return static_cast<std::size_t>(id); }

}  // namespace

std::vector<ChannelInfo> TreeChannelTable(int m, int n) {
  const int k = m / 2;
  std::vector<std::int64_t> pow_k(static_cast<std::size_t>(n) + 1);
  pow_k[0] = 1;
  for (int i = 1; i <= n; ++i) pow_k[At(i)] = pow_k[At(i - 1)] * k;
  const std::int64_t num_nodes = 2 * pow_k[At(n)];

  // Digits of a node id: digits[n-1] in [0, 2k), the rest base k.
  const auto node_digits = [&](std::int64_t node, int* digits) {
    const std::int64_t top_weight = pow_k[At(n - 1)];
    digits[n - 1] = static_cast<int>(node / top_weight);
    std::int64_t rest = node % top_weight;
    for (int j = 0; j < n - 1; ++j) {
      digits[j] = static_cast<int>(rest % k);
      rest /= k;
    }
  };
  const auto switch_index = [&](int level, const int* node_digits,
                                std::int64_t r_packed) -> std::int64_t {
    if (level == n) return r_packed;
    std::int64_t h_idx = node_digits[n - 1];
    for (int j = n - 2; j >= level; --j) h_idx = h_idx * k + node_digits[j];
    return h_idx * pow_k[At(level - 1)] + r_packed;
  };

  std::vector<std::int64_t> level_channel_base(static_cast<std::size_t>(n), 0);
  std::int64_t base = 2 * num_nodes;
  for (int l = 1; l <= n - 1; ++l) {
    level_channel_base[At(l)] = base;
    base += 2 * num_nodes;
  }
  const auto up_channel = [&](int level, std::int64_t sw, int u) {
    return level_channel_base[At(level)] + sw * k + u;
  };
  const auto down_channel = [&](int level, std::int64_t sw, int u) {
    return level_channel_base[At(level)] + num_nodes + sw * k + u;
  };

  std::vector<ChannelInfo> channels(At(base));
  int digits[32];
  for (std::int64_t node = 0; node < num_nodes; ++node) {
    node_digits(node, digits);
    const std::int64_t leaf = switch_index(1, digits, 0);
    channels[At(node)] = ChannelInfo{ChannelKind::kNodeToSwitch,
                                     Endpoint{true, 0, node},
                                     Endpoint{false, 1, leaf}};
    channels[At(num_nodes + node)] = ChannelInfo{
        ChannelKind::kSwitchToNode, Endpoint{false, 1, leaf},
        Endpoint{true, 0, node}};
  }
  for (int l = 1; l <= n - 1; ++l) {
    const std::int64_t count = 2 * pow_k[At(n - 1)];  // non-root level
    const std::int64_t rep = pow_k[At(l - 1)];
    for (std::int64_t sw = 0; sw < count; ++sw) {
      const std::int64_t h_idx = sw / rep;
      const std::int64_t r = sw % rep;
      for (int u = 0; u < k; ++u) {
        const std::int64_t r_parent = r + static_cast<std::int64_t>(u) * rep;
        const std::int64_t parent =
            (l + 1 == n) ? r_parent : (h_idx / k) * (rep * k) + r_parent;
        channels[At(up_channel(l, sw, u))] = ChannelInfo{
            ChannelKind::kSwitchUp, Endpoint{false, l, sw},
            Endpoint{false, l + 1, parent}};
        channels[At(down_channel(l, sw, u))] = ChannelInfo{
            ChannelKind::kSwitchDown, Endpoint{false, l + 1, parent},
            Endpoint{false, l, sw}};
      }
    }
  }
  return channels;
}

std::vector<ChannelInfo> CrossbarChannelTable(std::int64_t ports) {
  std::vector<ChannelInfo> channels;
  for (std::int64_t node = 0; node < ports; ++node) {
    channels.push_back(ChannelInfo{ChannelKind::kNodeToSwitch,
                                   Endpoint{true, 0, node},
                                   Endpoint{false, 1, 0}});
  }
  for (std::int64_t node = 0; node < ports; ++node) {
    channels.push_back(ChannelInfo{ChannelKind::kSwitchToNode,
                                   Endpoint{false, 1, 0},
                                   Endpoint{true, 0, node}});
  }
  return channels;
}

std::vector<ChannelInfo> MeshChannelTable(int radix, int dims, bool torus) {
  const bool wraps = torus && radix > 2;
  std::vector<std::int64_t> pow_k(static_cast<std::size_t>(dims) + 1);
  pow_k[0] = 1;
  for (int j = 1; j <= dims; ++j) pow_k[At(j)] = pow_k[At(j - 1)] * radix;
  const std::int64_t num_nodes = pow_k[At(dims)];
  const auto coord = [&](std::int64_t router, int dim) {
    return static_cast<int>((router / pow_k[At(dim)]) % radix);
  };

  std::vector<ChannelInfo> channels;
  for (std::int64_t node = 0; node < num_nodes; ++node) {
    channels.push_back(ChannelInfo{ChannelKind::kNodeToSwitch,
                                   Endpoint{true, 0, node},
                                   Endpoint{false, 1, node}});
  }
  for (std::int64_t node = 0; node < num_nodes; ++node) {
    channels.push_back(ChannelInfo{ChannelKind::kSwitchToNode,
                                   Endpoint{false, 1, node},
                                   Endpoint{true, 0, node}});
  }

  std::vector<std::int64_t> plus_base(static_cast<std::size_t>(dims));
  std::vector<std::int64_t> minus_base(static_cast<std::size_t>(dims));
  for (int j = 0; j < dims; ++j) {
    const std::int64_t per_dir =
        wraps ? num_nodes : (num_nodes / radix) * (radix - 1);
    plus_base[At(j)] = static_cast<std::int64_t>(channels.size());
    channels.resize(channels.size() + At(per_dir));
    minus_base[At(j)] = static_cast<std::int64_t>(channels.size());
    channels.resize(channels.size() + At(per_dir));
  }
  const auto link_channel = [&](std::int64_t router, int dim, int dir) {
    const std::int64_t base =
        dir > 0 ? plus_base[At(dim)] : minus_base[At(dim)];
    if (wraps) return base + router;
    const std::int64_t step = pow_k[At(dim)];
    const std::int64_t lo = router % step;
    const std::int64_t c = (router / step) % radix;
    const std::int64_t hi = router / (step * radix);
    const std::int64_t digit = dir > 0 ? c : c - 1;
    return base + (hi * (radix - 1) + digit) * step + lo;
  };
  for (std::int64_t r = 0; r < num_nodes; ++r) {
    for (int j = 0; j < dims; ++j) {
      const int c = coord(r, j);
      const std::int64_t step = pow_k[At(j)];
      if (wraps || c < radix - 1) {
        const std::int64_t to =
            (c < radix - 1) ? r + step : r - (radix - 1) * step;
        channels[At(link_channel(r, j, +1))] =
            ChannelInfo{ChannelKind::kSwitchUp, Endpoint{false, 1, r},
                        Endpoint{false, 1, to}};
      }
      if (wraps || c > 0) {
        const std::int64_t to = (c > 0) ? r - step : r + (radix - 1) * step;
        channels[At(link_channel(r, j, -1))] =
            ChannelInfo{ChannelKind::kSwitchDown, Endpoint{false, 1, r},
                        Endpoint{false, 1, to}};
      }
    }
  }
  return channels;
}

std::vector<ChannelInfo> DragonflyChannelTable(int a, int p, int h) {
  const int groups = a * h + 1;
  const std::int64_t num_nodes = static_cast<std::int64_t>(groups) * a * p;
  const auto slot_router = [h](int slot) { return slot / h; };
  const auto peer_slot = [groups](int slot) { return groups - 2 - slot; };

  std::vector<ChannelInfo> channels;
  for (std::int64_t node = 0; node < num_nodes; ++node) {
    channels.push_back(ChannelInfo{ChannelKind::kNodeToSwitch,
                                   Endpoint{true, 0, node},
                                   Endpoint{false, 1, node / p}});
  }
  for (std::int64_t node = 0; node < num_nodes; ++node) {
    channels.push_back(ChannelInfo{ChannelKind::kSwitchToNode,
                                   Endpoint{false, 1, node / p},
                                   Endpoint{true, 0, node}});
  }
  for (int gi = 0; gi < groups; ++gi) {
    for (int r = 0; r < a; ++r) {
      for (int t = 0; t < a; ++t) {
        if (t == r) continue;
        channels.push_back(ChannelInfo{
            ChannelKind::kSwitchUp,
            Endpoint{false, 1, static_cast<std::int64_t>(gi) * a + r},
            Endpoint{false, 1, static_cast<std::int64_t>(gi) * a + t}});
      }
    }
  }
  for (int gi = 0; gi < groups; ++gi) {
    for (int q = 0; q < a * h; ++q) {
      const int peer = (gi + q + 1) % groups;
      channels.push_back(ChannelInfo{
          ChannelKind::kSwitchDown,
          Endpoint{false, 1,
                   static_cast<std::int64_t>(gi) * a + slot_router(q)},
          Endpoint{false, 1, static_cast<std::int64_t>(peer) * a +
                                 slot_router(peer_slot(q))}});
    }
  }
  return channels;
}

}  // namespace coc
