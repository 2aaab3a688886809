// Counting-allocator bound on the compiled model's footprint: a model of C
// clusters in K pair-side shapes holds O(C + K^2) state, never a C x C
// table. This binary replaces global operator new with a byte-counting
// version and compiles a 4,096-cluster, two-run hot-spot model (the skewed
// path, whose destination weights once filled a C x C table too). The whole
// compile must allocate under 16 MB; the two C x C tables alone took
// 192 MiB.
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <string>

#include "config/config_parser.h"
#include "gtest/gtest.h"
#include "model/compiled_model.h"

namespace {

std::atomic<long long> g_alloc_bytes{0};

void* CountedAlloc(std::size_t size) {
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

TEST(ModelAlloc, ManyClusterHotspotCompileAllocatesUnder16MB) {
  // Two runs of 2,048 clusters each; m = 4 makes the 4,096-slot ICN2 an
  // exact fit, so its journey census is the closed form.
  const std::string section =
      "[clusters]\ncount = 2048\nicn1 = net1\necn1 = net2\nn = ";
  const SystemConfig sys = ParseSystemConfig(
      "[system]\nm = 4\nicn2 = net1\nmessage_flits = 32\nflit_bytes = 256\n"
      "[network net1]\nbandwidth = 500\nnetwork_latency = 0.01\n"
      "switch_latency = 0.02\n"
      "[network net2]\nbandwidth = 250\nnetwork_latency = 0.05\n"
      "switch_latency = 0.01\n" +
      section + "1\n" + section + "2\n");
  ASSERT_EQ(sys.num_clusters(), 4096);
  ASSERT_TRUE(sys.icn2_exact_fit());
  const Workload hotspot = Workload::Hotspot(0.1, 5);

  const long long before = g_alloc_bytes.load();
  const CompiledModel model(sys, hotspot);
  const long long bytes = g_alloc_bytes.load() - before;
  EXPECT_LT(bytes, 16'000'000) << bytes << " bytes allocated by the compile";

  const ModelResult r = model.Evaluate(1e-9);
  ASSERT_EQ(r.clusters.size(), 4096u);
  EXPECT_TRUE(std::isfinite(r.mean_latency));
}

}  // namespace
}  // namespace coc
