// Counting-allocator proof of the zero-allocation hot path: this binary
// replaces global operator new/delete with counting versions and asserts
// that a warmed-up engine (and the whole CocSystemSim::Run streaming path
// with a reused SimScratch) performs **zero** heap allocations per message
// in steady state — every container only ever reuses capacity retained
// across Reset().
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <vector>

#include "gtest/gtest.h"
#include "sim/coc_system_sim.h"
#include "sim/wormhole_engine.h"
#include "system/presets.h"

namespace {

std::atomic<long> g_alloc_count{0};

}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace coc {
namespace {

/// Deterministic engine workload: resets `engine` to the channel set
/// `times` (at least 8 channels), then adds one pipelined message per entry
/// of `gen_slot`, the i-th generated at 0.25 * gen_slot[i], through the
/// span-based AddMessage (no temporary vectors). Returns the delivery-time
/// sum as a checksum.
double LoadAndRun(WormholeEngine& engine, const std::vector<double>& times,
                  const std::vector<int>& gen_slot) {
  engine.Reset(times);
  std::uint64_t state = 99;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (std::size_t i = 0; i < gen_slot.size(); ++i) {
    std::int32_t path[3];
    std::int32_t depth[3] = {1, 1, 1};
    std::int32_t c = static_cast<std::int32_t>(next() % 4);
    for (int j = 0; j < 3; ++j) {
      path[j] = c;
      c += 1 + static_cast<std::int32_t>(next() % 2);
    }
    engine.AddMessage(0.25 * gen_slot[i], path, depth, 3,
                      1 + static_cast<std::int32_t>(next() % 6),
                      static_cast<std::uint64_t>(i));
  }
  double sum = 0;
  engine.Run([&sum](const WormholeEngine::Delivery& d) {
    sum += d.deliver_time;
  });
  return sum;
}

/// Runs the workload once to grow every buffer, then counts the
/// allocations of an identical replay.
void ExpectWarmReplayAllocationFree(const std::vector<double>& times,
                                    const std::vector<int>& gen_slot) {
  WormholeEngine engine;
  const double checksum = LoadAndRun(engine, times, gen_slot);

  const long before = g_alloc_count.load(std::memory_order_relaxed);
  const double replay = LoadAndRun(engine, times, gen_slot);
  const long allocs = g_alloc_count.load(std::memory_order_relaxed) - before;

  EXPECT_EQ(allocs, 0) << "steady-state injection path must not allocate";
  EXPECT_EQ(replay, checksum) << "Reset() must fully restore initial state";
}

TEST(ZeroAlloc, WarmedUpEngineDoesNotAllocate) {
  std::vector<int> in_order(500);
  for (int i = 0; i < 500; ++i) in_order[static_cast<std::size_t>(i)] = i;
  ExpectWarmReplayAllocationFree(std::vector<double>(8, 1.0), in_order);
}

TEST(ZeroAlloc, ManyLanesOutOfOrderGenerationsDoNotAllocate) {
  // Five distinct flit times (five delay lanes) and AddMessage calls out of
  // gen-time order, with every generation slot used twice: the lanes, the
  // merge heap and the generation order all reuse their capacity, and
  // Reset() to the same table keeps the lane ids without rebuilding them.
  std::vector<int> shuffled(500);
  for (int i = 0; i < 500; ++i) {
    shuffled[static_cast<std::size_t>(i)] = (i * 389) % 250;
  }
  ExpectWarmReplayAllocationFree({1.0, 0.5, 1.5, 0.75, 1.0, 0.25, 1.5, 0.5},
                                 shuffled);
}

TEST(ZeroAlloc, SimRunAllocationsIndependentOfMessageCount) {
  // The full streaming path: traffic generation, routing (with the ICN2
  // skeleton cache), AddMessage, engine run. A warmed-up SimScratch makes
  // the per-run allocation count a small constant (result bookkeeping),
  // independent of how many messages flow — i.e. zero per message.
  const auto sys = MakeSmallSystem(MessageFormat{16, 64});
  const CocSystemSim sim(sys);
  SimScratch scratch;

  SimConfig large;
  large.lambda_g = 2e-4;
  large.warmup_messages = 200;
  large.measured_messages = 2000;
  large.drain_messages = 200;
  SimConfig small = large;
  small.measured_messages = 600;

  sim.Run(large, scratch);  // warm every buffer to the larger shape

  auto count_allocs = [&](const SimConfig& cfg) {
    const long before = g_alloc_count.load(std::memory_order_relaxed);
    const auto r = sim.Run(cfg, scratch);
    EXPECT_GT(r.delivered, 0);
    return g_alloc_count.load(std::memory_order_relaxed) - before;
  };

  const long small_allocs = count_allocs(small);
  const long large_allocs = count_allocs(large);
  EXPECT_EQ(small_allocs, large_allocs)
      << "per-run allocations must not scale with message count";
  // The constant is result bookkeeping (per-cluster stats vector), not the
  // hot path; keep it honest and tiny.
  EXPECT_LE(large_allocs, 8);
}

TEST(ZeroAlloc, MmppArrivalsStayAllocationFree) {
  // The bursty generator is a two-state gap sampler over the same Rng — no
  // state beyond two doubles and a bool, so the streaming path's
  // per-message allocation count stays zero.
  const auto sys = MakeSmallSystem(MessageFormat{16, 64});
  const CocSystemSim sim(sys);
  SimScratch scratch;

  SimConfig large;
  large.lambda_g = 2e-4;
  large.warmup_messages = 200;
  large.measured_messages = 2000;
  large.drain_messages = 200;
  large.workload.arrival = ArrivalProcess::Mmpp(4.0, 8.0);
  SimConfig small = large;
  small.measured_messages = 600;

  sim.Run(large, scratch);  // warm every buffer to the larger shape

  auto count_allocs = [&](const SimConfig& cfg) {
    const long before = g_alloc_count.load(std::memory_order_relaxed);
    const auto r = sim.Run(cfg, scratch);
    EXPECT_GT(r.delivered, 0);
    return g_alloc_count.load(std::memory_order_relaxed) - before;
  };

  const long small_allocs = count_allocs(small);
  const long large_allocs = count_allocs(large);
  EXPECT_EQ(small_allocs, large_allocs)
      << "per-run allocations must not scale with message count";
  EXPECT_LE(large_allocs, 8);
}

TEST(ZeroAlloc, TraceReplayStaysAllocationFree) {
  // Trace replay reads the shared immutable TraceData (loaded once, outside
  // the measured window) and pushes into the reused traffic buffer — no
  // per-message heap traffic, independent of how many cycles the replay
  // wraps through.
  const auto sys = MakeSmallSystem(MessageFormat{16, 64});
  {
    std::ofstream out("/tmp/coc_alloc_replay.trace");
    for (int k = 0; k < 32; ++k) {
      out << (k * 50.0) << ' ' << (k % 16) << ' ' << (16 + k % 8) << " 8\n";
    }
  }
  const CocSystemSim sim(sys);
  SimScratch scratch;

  SimConfig large;
  large.lambda_g = 2e-4;
  large.warmup_messages = 200;
  large.measured_messages = 2000;
  large.drain_messages = 200;
  large.workload.arrival =
      ArrivalProcess::TraceReplay("/tmp/coc_alloc_replay.trace");
  SimConfig small = large;
  small.measured_messages = 600;

  sim.Run(large, scratch);  // warm every buffer to the larger shape

  auto count_allocs = [&](const SimConfig& cfg) {
    const long before = g_alloc_count.load(std::memory_order_relaxed);
    const auto r = sim.Run(cfg, scratch);
    EXPECT_GT(r.delivered, 0);
    return g_alloc_count.load(std::memory_order_relaxed) - before;
  };

  const long small_allocs = count_allocs(small);
  const long large_allocs = count_allocs(large);
  EXPECT_EQ(small_allocs, large_allocs)
      << "per-run allocations must not scale with message count";
  EXPECT_LE(large_allocs, 8);
}

TEST(ZeroAlloc, DragonflyRoutingStaysAllocationFree) {
  // The dragonfly oracle (including the Valiant clusters' entropy-driven
  // intermediate-group selection) must preserve the zero-alloc streaming
  // path: it only appends into the reused RoutedPath buffers.
  const auto sys = MakeDragonflySystem(MessageFormat{16, 64});
  const CocSystemSim sim(sys);
  SimScratch scratch;

  SimConfig large;
  large.lambda_g = 2e-4;
  large.warmup_messages = 200;
  large.measured_messages = 2000;
  large.drain_messages = 200;
  large.ascent = SimConfig::AscentPolicy::kRandomized;  // live Valiant draws
  SimConfig small = large;
  small.measured_messages = 600;

  sim.Run(large, scratch);  // warm every buffer to the larger shape

  auto count_allocs = [&](const SimConfig& cfg) {
    const long before = g_alloc_count.load(std::memory_order_relaxed);
    const auto r = sim.Run(cfg, scratch);
    EXPECT_GT(r.delivered, 0);
    return g_alloc_count.load(std::memory_order_relaxed) - before;
  };

  const long small_allocs = count_allocs(small);
  const long large_allocs = count_allocs(large);
  EXPECT_EQ(small_allocs, large_allocs)
      << "per-run allocations must not scale with message count";
  EXPECT_LE(large_allocs, 8);
}

}  // namespace
}  // namespace coc
