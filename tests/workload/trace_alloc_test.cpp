// Heap allocations of trace generation.
//
// The binary replaces the global allocator with a counting shim. An event
// names its model with an interned ModelName, so GenerateTrace allocates
// per model and per vector growth, never per event: a Poisson model's
// ~100k-event trace makes as many allocations as its ~1k-event trace,
// apart from the extra doublings of the model's arrival array.
//
// Under asan/tsan the counting shim is compiled out (the sanitizer runtime
// owns operator new), as in tests/obs/alloc_test.cpp, and the case only
// checks that both traces are generated.

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "workload/trace.h"

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

namespace swapserve::workload {
namespace {

TEST(TraceAllocTest, NoAllocationPerEvent) {
  ConstantRate rate(1.0);
  const RequestProfile profile = RequestProfile::Conversational();
  // Past std::string's inline buffer, so a per-event copy would allocate.
  const std::vector<ModelWorkload> mix = {
      {"llama-3.1-8b-instruct-fp16", &rate, &profile}};
  (void)GenerateTrace(mix, 10, 1);  // interns the name

  std::uint64_t before = g_alloc_count;
  const std::vector<TraceEvent> small = GenerateTrace(mix, 1'000, 1);
  const std::uint64_t small_allocs = g_alloc_count - before;
  before = g_alloc_count;
  const std::vector<TraceEvent> large = GenerateTrace(mix, 100'000, 1);
  const std::uint64_t large_allocs = g_alloc_count - before;

  ASSERT_GT(small.size(), 900u);
  ASSERT_GT(large.size(), 90'000u);
  if (!SWAPSERVE_COUNTING_NEW) return;
  // The arrival array grows by doubling: one more block per power of two.
  const auto extra_doublings = static_cast<std::uint64_t>(
      std::bit_width(large.size()) - std::bit_width(small.size()) + 1);
  EXPECT_LE(large_allocs, small_allocs + extra_doublings)
      << "1k events: " << small_allocs << " allocations, 100k events: "
      << large_allocs;
}

}  // namespace
}  // namespace swapserve::workload
