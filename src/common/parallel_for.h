// ParallelFor — the tree's one worker-pool loop. Thread count is a
// parameter, never a second code path: a single worker runs on the calling
// thread through the very loop that N workers share, so serial and parallel
// results cannot drift apart.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace coc {

/// Calls body(i, state) for every i in [0, n), indices claimed in ascending
/// order by min(threads, n) workers (threads <= 1: one worker, on the
/// calling thread). Each worker owns one default-constructed State — a
/// per-thread arena reused across the indices it claims. A body returning
/// false stops further claims; indices other workers already claimed still
/// finish. `body` must not throw: capture failures per index instead.
template <class State, class Body>
void ParallelFor(std::size_t n, int threads, const Body& body) {
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};
  const auto worker = [&] {
    State state;
    while (!stop.load()) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      if (!body(i, state)) stop.store(true);
    }
  };
  const std::size_t workers =
      std::min(static_cast<std::size_t>(std::max(threads, 1)), n);
  if (workers <= 1) {
    worker();
    return;
  }
  // jthread joins in its destructor, so the workers already started are
  // joined even when starting a later one throws.
  std::vector<std::jthread> pool;
  pool.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(worker);
}

}  // namespace coc
