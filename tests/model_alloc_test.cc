// Counting-allocator bounds on the compiled model and its system. This
// binary replaces global operator new with a version that counts blocks and
// bytes, and pins:
//   * the footprint: a model of C clusters in K pair-side shapes holds
//     O(C + K^2) state, never a C x C table. A 4,096-cluster, two-run
//     hot-spot compile (the skewed path, whose destination weights once
//     filled a C x C table too) must allocate under 16 MB; the two C x C
//     tables alone took 192 MiB;
//   * that SystemConfig copies share one state, so a copy allocates nothing;
//   * that a compile allocates per class, not per cluster: a cold compile or
//     a Rebind of two runs of 2,048 clusters makes at most 16 more
//     allocations than one of two runs of 32 (a key built or interned per
//     cluster would add thousands);
//   * that a preset:1120 Rebind to an adjacent locality makes at most 60.
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>

#include "config/config_parser.h"
#include "gtest/gtest.h"
#include "model/compiled_model.h"
#include "system/presets.h"

namespace {

std::atomic<long long> g_alloc_blocks{0};
std::atomic<long long> g_alloc_bytes{0};

void* CountedAlloc(std::size_t size) {
  g_alloc_blocks.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(static_cast<long long>(size),
                          std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace coc {
namespace {

struct Allocs {
  long long blocks = 0;
  long long bytes = 0;
};

/// The blocks and bytes `f` allocates.
template <typename F>
Allocs Counted(const F& f) {
  const long long blocks = g_alloc_blocks.load();
  const long long bytes = g_alloc_bytes.load();
  f();
  return {g_alloc_blocks.load() - blocks, g_alloc_bytes.load() - bytes};
}

/// Two runs of `count` clusters each (n = 1, then n = 2); m = 4 makes the
/// 4 * count-slot ICN2 an exact fit when count is a power of two, so its
/// journey census is the closed form.
SystemConfig TwoRuns(int count) {
  const std::string section = "[clusters]\ncount = " + std::to_string(count) +
                              "\nicn1 = net1\necn1 = net2\nn = ";
  return ParseSystemConfig(
      "[system]\nm = 4\nicn2 = net1\nmessage_flits = 32\nflit_bytes = 256\n"
      "[network net1]\nbandwidth = 500\nnetwork_latency = 0.01\n"
      "switch_latency = 0.02\n"
      "[network net2]\nbandwidth = 250\nnetwork_latency = 0.05\n"
      "switch_latency = 0.01\n" +
      section + "1\n" + section + "2\n");
}

TEST(ModelAlloc, ManyClusterHotspotCompileAllocatesUnder16MB) {
  const SystemConfig sys = TwoRuns(2048);
  ASSERT_EQ(sys.num_clusters(), 4096);
  ASSERT_TRUE(sys.icn2_exact_fit());
  const Workload hotspot = Workload::Hotspot(0.1, 5);

  std::optional<CompiledModel> model;
  const Allocs compile = Counted([&] { model.emplace(sys, hotspot); });
  EXPECT_LT(compile.bytes, 16'000'000)
      << compile.bytes << " bytes allocated by the compile";

  const ModelResult r = model->Evaluate(1e-9);
  ASSERT_EQ(r.clusters.size(), 4096u);
  EXPECT_TRUE(std::isfinite(r.mean_latency));
}

TEST(ModelAlloc, SystemConfigCopiesShareOneState) {
  const SystemConfig sys = TwoRuns(2048);
  std::optional<SystemConfig> copy;
  const Allocs allocs = Counted([&] { copy.emplace(sys); });
  EXPECT_EQ(allocs.blocks, 0) << allocs.bytes << " bytes";
  EXPECT_EQ(&copy->cluster(4095), &sys.cluster(4095));
}

TEST(ModelAlloc, CompileAndRebindAllocatePerClassNotPerCluster) {
  // Uniform and hot-spot, cold and rebound from the other pattern: 64 times
  // the clusters in the same classes must cost at most 16 more blocks.
  const Workload uniform = Workload::Uniform();
  const Workload hotspot = Workload::Hotspot(0.1, 5);
  const auto blocks = [&](int count, bool rebind, const Workload& target) {
    const SystemConfig sys = TwoRuns(count);
    const CompiledModel source(sys, &target == &uniform ? hotspot : uniform);
    std::optional<CompiledModel> model;
    return Counted([&] {
             if (rebind) {
               model.emplace(source.Rebind(target));
             } else {
               model.emplace(sys, target);
             }
           })
        .blocks;
  };
  for (const bool rebind : {false, true}) {
    for (const Workload* target : {&uniform, &hotspot}) {
      SCOPED_TRACE(std::string(rebind ? "rebind to " : "cold ") +
                   (target == &uniform ? "uniform" : "hot-spot"));
      const long long small = blocks(32, rebind, *target);
      const long long large = blocks(2048, rebind, *target);
      EXPECT_LE(large, small + 16) << small << " blocks for 64 clusters, "
                                   << large << " for 4,096";
    }
  }
}

TEST(ModelAlloc, Preset1120LocalityRebindMakesAtMost60Allocations) {
  const SystemConfig sys = MakeSystem1120(MessageFormat{32, 256});
  const CompiledModel source(sys, Workload::ClusterLocal(0.6));
  std::optional<CompiledModel> moved;
  const Allocs allocs = Counted(
      [&] { moved.emplace(source.Rebind(Workload::ClusterLocal(0.65))); });
  EXPECT_LE(allocs.blocks, 60) << allocs.bytes << " bytes";
  // Every pair class it rebuilt found its combos in the shared table.
  const CompiledModel::RebindStats& stats = moved->rebind_stats();
  EXPECT_GT(stats.pair_rebuilt, 0);
  EXPECT_EQ(stats.combos_shared, stats.pair_rebuilt);
}

}  // namespace
}  // namespace coc
