// Heap allocations on the request path.
//
// The binary replaces the global allocator with a counting shim. A warm
// SwapServe serves a resident model, whose name is too long for the
// string's inline buffer, through ChatAndWait with the name moved in. Once
// warm, a request may allocate its response channel and nothing else:
// the name moves from the caller into the queued request and is looked up
// once, at RequestHandler::Accept; the queue, the relay and the completion
// record borrow the backend and move the record. The only other growth is
// amortized: the per-model Samples vectors doubling.
//
// Under asan/tsan the counting shim is compiled out (the sanitizer runtime
// owns operator new), as in tests/sim/alloc_test.cpp, and so is the frame
// pool; the case then checks only that every request completes.

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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

TEST(RequestAllocTest, ResidentRequestAllocatesOnlyItsResponseChannel) {
  TestBed bed;
  const std::string model = "deepseek-r1-7b-fp16";
  ASSERT_GT(model.size(), std::string().capacity())
      << "the name must not fit the string's inline buffer";
  SwapServe serve(bed.sim, bed.MakeConfig({{model, "ollama"}}), bed.catalog,
                  bed.hardware(),
                  SwapServeOptions{.keep_resident_after_init = true});
  constexpr int kWarm = 1000;
  constexpr int kRequests = 1000;
  // Each request's name is built before counting starts, then moved in.
  std::vector<std::string> names(kWarm + kRequests, model);
  int ok = 0;
  std::uint64_t counted = 0;

  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    for (int i = 0; i < kWarm + kRequests; ++i) {
      const std::uint64_t before = g_alloc_count;
      ChatResult r = co_await serve.ChatAndWait(
          std::move(names[static_cast<std::size_t>(i)]),
          /*prompt_tokens=*/128, /*max_tokens=*/32);
      if (r.ok) ++ok;
      if (i >= kWarm) counted += g_alloc_count - before;
    }
    serve.Shutdown();
  });

  EXPECT_EQ(ok, kWarm + kRequests);
  EXPECT_EQ(serve.metrics().ForModel(model).completed,
            static_cast<std::uint64_t>(kWarm + kRequests));
#if SWAPSERVE_COUNTING_NEW && SWAPSERVE_FRAME_POOL && !SWAPSERVE_LOCK_DEBUG
  // One response channel per request; the two per-model Samples vectors
  // (TTFT, swap wait) each double at most once between 1000 and 2000
  // entries.
  EXPECT_LE(counted, static_cast<std::uint64_t>(kRequests) + 2)
      << "heap allocations over " << kRequests << " warm requests";
#else
  (void)counted;
#endif
}

}  // namespace
}  // namespace swapserve::core
