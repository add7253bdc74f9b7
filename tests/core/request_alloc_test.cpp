// Heap allocations on the request path.
//
// The binary replaces the global allocator with a counting shim. A warm
// SwapServe serves a resident model, whose name is too long for the
// string's inline buffer, through two entry points: ChatAndWait with a
// borrowed name, and the OpenAI router with a tenant and an SLO class
// under admission control. Once warm, a request may allocate its response
// channel and nothing else: every name is borrowed and read once, at
// RequestHandler::Accept, and only the request's numbers are queued; the
// queue, the relay and the completion record borrow the backend. The only
// other growth is amortized: the per-model Samples vectors doubling.
//
// Under asan/tsan the counting shim is compiled out (the sanitizer runtime
// owns operator new), as in tests/sim/alloc_test.cpp, and so is the frame
// pool; the cases then check only that every request completes.

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

constexpr int kWarm = 1000;
constexpr int kRequests = 1000;
const std::string kModel = "deepseek-r1-7b-fp16";

// One response channel per request; the two per-model Samples vectors
// (TTFT, swap wait) each double at most once between 1000 and 2000
// entries.
void ExpectOnlyResponseChannels(std::uint64_t counted) {
#if SWAPSERVE_COUNTING_NEW && SWAPSERVE_FRAME_POOL && !SWAPSERVE_LOCK_DEBUG
  EXPECT_LE(counted, static_cast<std::uint64_t>(kRequests) + 2)
      << "heap allocations over " << kRequests << " warm requests";
#else
  (void)counted;
#endif
}

TEST(RequestAllocTest, ResidentRequestAllocatesOnlyItsResponseChannel) {
  TestBed bed;
  ASSERT_GT(kModel.size(), std::string().capacity())
      << "the name must not fit the string's inline buffer";
  SwapServe serve(bed.sim, bed.MakeConfig({{kModel, "ollama"}}), bed.catalog,
                  bed.hardware(),
                  SwapServeOptions{.keep_resident_after_init = true});
  int ok = 0;
  std::uint64_t counted = 0;

  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    // The caller keeps its name; ChatAndWait borrows it.
    const std::string& name = kModel;
    for (int i = 0; i < kWarm + kRequests; ++i) {
      const std::uint64_t before = g_alloc_count;
      ChatResult r = co_await serve.ChatAndWait(name, /*prompt_tokens=*/128,
                                                /*max_tokens=*/32);
      if (r.ok) ++ok;
      if (i >= kWarm) counted += g_alloc_count - before;
    }
    serve.Shutdown();
  });

  EXPECT_EQ(ok, kWarm + kRequests);
  EXPECT_EQ(serve.metrics().ForModel(kModel).completed,
            static_cast<std::uint64_t>(kWarm + kRequests));
  ExpectOnlyResponseChannels(counted);
}

TEST(RequestAllocTest, RoutedRequestAllocatesOnlyItsResponseChannel) {
  TestBed bed;
  Config cfg = bed.MakeConfig({{kModel, "ollama"}});
  cfg.admission.enabled = true;
  cfg.admission.default_budget_s = 1e6;
  cfg.admission.class_budget_s["interactive-tier"] = 1e6;
  SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware(),
                  SwapServeOptions{.keep_resident_after_init = true});
  const std::string body =
      R"({"model":")" + kModel +
      R"(","messages":[{"role":"user","content":"hello there"}],)"
      R"("max_tokens":32,"user":"tenant-with-a-long-id",)"
      R"("slo_class":"interactive-tier"})";
  int ok = 0;
  std::uint64_t counted = 0;

  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    for (int i = 0; i < kWarm + kRequests; ++i) {
      const std::uint64_t before = g_alloc_count;
      Result<ResponseChannelPtr> ch = serve.router().ChatCompletions(body);
      EXPECT_TRUE(ch.ok()) << ch.status();
      if (!ch.ok()) break;
      ChatResult r = co_await SwapServe::CollectResponse(std::move(*ch));
      if (r.ok) ++ok;
      if (i >= kWarm) counted += g_alloc_count - before;
    }
    serve.Shutdown();
  });

  EXPECT_EQ(ok, kWarm + kRequests);
  EXPECT_EQ(serve.admission()->tenant_stats().at("tenant-with-a-long-id")
                .admitted,
            static_cast<std::uint64_t>(kWarm + kRequests));
  ExpectOnlyResponseChannels(counted);
}

}  // namespace
}  // namespace swapserve::core
