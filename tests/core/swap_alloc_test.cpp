// Heap allocations on the swap path and on the fleet's routing path.
//
// The binary replaces the global allocator with a counting shim, as
// tests/core/request_alloc_test.cpp does.
//
// Swap cycles: two vLLM models, each claiming 90 % of one GPU, share it, so
// every request for the one preempts the other. Once warm, a request runs
// a whole swap cycle (reservation, reclaim, freeze, lock, D2H, release;
// reserve, H2D, remap, unlock, thaw) and may allocate its response channel
// and nothing else: owners are interned Names copied by value, device
// groups are borrowed spans, per-device lists sit in the swap frames, and
// the snapshot, tier, GPU-allocation and reservation tables are flat arrays
// that reached their size during warm-up. The window is sized so that no
// Samples vector doubles inside it (each model's TTFT and swap-wait vectors
// go from ~150 to ~250 entries under a capacity of 256, the swap-latency
// vectors from ~300 to ~500 under 512). The one amortized growth left is
// the GPU monitor's sample series: its TimeSeries run vector doubles about
// once per few hundred cycles.
//
// Fleet routing: a 2-node ClusterServe routes every request through
// placement (PlacementPolicy::Pick) to the resident home node. A warm
// request allocates its response channel; the only other growth is the
// per-model Samples vectors doubling once, as in request_alloc_test.
//
// Under asan/tsan the counting shim is compiled out (the sanitizer runtime
// owns operator new), and so is the frame pool; the cases then check only
// that every request completes (and swaps).

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "core/swap_serve.h"
#include "fixture.h"
#include "sim/frame_pool.h"
#include "sim/lock_debug.h"

#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#if defined(__has_feature)
#if !__has_feature(address_sanitizer) && !__has_feature(thread_sanitizer)
#define SWAPSERVE_COUNTING_NEW 1
#endif
#else
#define SWAPSERVE_COUNTING_NEW 1
#endif
#endif
#ifndef SWAPSERVE_COUNTING_NEW
#define SWAPSERVE_COUNTING_NEW 0
#endif

namespace {
std::uint64_t g_alloc_count = 0;
}  // namespace

#if SWAPSERVE_COUNTING_NEW
void* operator new(std::size_t n) {
  ++g_alloc_count;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace swapserve::core {
namespace {

using testing::TestBed;

constexpr bool kCounting = SWAPSERVE_COUNTING_NEW && SWAPSERVE_FRAME_POOL &&
                           !SWAPSERVE_LOCK_DEBUG;

// Both names are longer than std::string's inline buffer, so a copy of
// either would be a heap block.
const std::string kModelA = "deepseek-r1-7b-fp16";
const std::string kModelB = "llama-3.2-3b-fp16";

TEST(SwapAllocTest, WarmSwapCycleAllocatesOnlyItsResponseChannel) {
  constexpr int kWarm = 300;
  constexpr int kCycles = 200;
  TestBed bed;
  ASSERT_GT(kModelB.size(), std::string().capacity());
  SwapServe serve(bed.sim,
                  bed.MakeConfig({{kModelA, "vllm"}, {kModelB, "vllm"}}),
                  bed.catalog, bed.hardware());
  int ok = 0;
  std::uint64_t counted = 0;
  std::uint64_t swaps_counted = 0;

  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    for (int i = 0; i < kWarm + kCycles; ++i) {
      const std::string& name = i % 2 == 0 ? kModelA : kModelB;
      const std::uint64_t before = g_alloc_count;
      const std::uint64_t swap_ins = serve.metrics().swap_ins;
      ChatResult r = co_await serve.ChatAndWait(name, /*prompt_tokens=*/128,
                                                /*max_tokens=*/32);
      if (r.ok) ++ok;
      if (i >= kWarm) {
        counted += g_alloc_count - before;
        swaps_counted += serve.metrics().swap_ins - swap_ins;
      }
    }
    serve.Shutdown();
  });

  EXPECT_EQ(ok, kWarm + kCycles);
  // Every counted request swapped its model in (and the other out).
  EXPECT_EQ(swaps_counted, static_cast<std::uint64_t>(kCycles));
  if (kCounting) {
    // One response channel per request, plus at most two doublings of the
    // GPU monitor's run vector.
    EXPECT_LE(counted, static_cast<std::uint64_t>(kCycles) + 2)
        << "heap allocations over " << kCycles << " warm swap cycles";
  }
}

TEST(SwapAllocTest, RoutedClusterRequestAllocatesOnlyItsResponseChannel) {
  constexpr int kWarm = 1000;
  constexpr int kRequests = 1000;
  sim::Simulation sim;
  const model::ModelCatalog catalog = model::ModelCatalog::Default();
  Config cfg;
  ModelEntry entry;
  entry.model_id = kModelA;
  entry.engine = "vllm";
  cfg.models.push_back(entry);
  cfg.cluster.nodes = 2;
  cluster::ClusterServe fleet(
      sim, cfg, catalog, SwapServeOptions{.keep_resident_after_init = true});
  int ok = 0;
  std::uint64_t counted = 0;

  sim::Spawn([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await fleet.Initialize()).ok());
    InferenceRequest request;
    request.model = kModelA;
    request.prompt_tokens = 128;
    request.max_tokens = 32;
    for (int i = 0; i < kWarm + kRequests; ++i) {
      const std::uint64_t before = g_alloc_count;
      Result<ResponseChannelPtr> ch = fleet.Accept(request);
      EXPECT_TRUE(ch.ok()) << ch.status();
      if (!ch.ok()) break;
      ChatResult r = co_await SwapServe::CollectResponse(std::move(*ch));
      if (r.ok) ++ok;
      if (i >= kWarm) counted += g_alloc_count - before;
    }
    fleet.Shutdown();
  });
  sim.Run();

  EXPECT_EQ(ok, kWarm + kRequests);
  EXPECT_EQ(fleet.routed(), static_cast<std::uint64_t>(kWarm + kRequests));
  if (kCounting) {
    // One response channel per request; the per-model TTFT and swap-wait
    // Samples vectors each double at most once between 1000 and 2000
    // entries.
    EXPECT_LE(counted, static_cast<std::uint64_t>(kRequests) + 2)
        << "heap allocations over " << kRequests << " routed requests";
  }
}

}  // namespace
}  // namespace swapserve::core
