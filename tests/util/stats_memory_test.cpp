// Heap bytes of the telemetry stores.
//
// The binary replaces the global allocator with a shim that counts the
// bytes of every allocation and the largest single one. It pins the
// stores' cost per element, counting every byte allocated, freed or not:
//   - a TimeSeries run is 12 bytes (a vector of 24-byte runs that doubles
//     allocates about 50 bytes per run over its growth);
//   - a Samples value is 8 bytes (a doubling vector of doubles: about 16);
//   - chunks are never copied, so no single allocation is larger than one
//     chunk (a doubling vector's last block holds everything);
//   - a percentile query allocates nothing (a sorted copy: 8 bytes per
//     value).
//
// Under asan/tsan the counting shim is compiled out (the sanitizer runtime
// owns operator new), as in tests/workload/trace_alloc_test.cpp, and the
// cases only run the stores.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "util/stats.h"

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
std::uint64_t g_alloc_bytes = 0;
std::size_t g_largest = 0;
}  // namespace

#if SWAPSERVE_COUNTING_NEW
void* operator new(std::size_t n) {
  g_alloc_bytes += n;
  g_largest = std::max(g_largest, n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace swapserve {
namespace {

constexpr std::size_t kElements = 1'000'000;

// Bytes allocated while fn runs, and the largest single allocation.
struct Allocated {
  std::uint64_t bytes;
  std::size_t largest;
};
template <class Fn>
Allocated Count(Fn&& fn) {
  const std::uint64_t before = g_alloc_bytes;
  g_largest = 0;
  fn();
  return {g_alloc_bytes - before, g_largest};
}

TEST(StatsMemoryTest, TimeSeriesRunCostsTwelveBytes) {
  constexpr std::int64_t kInterval = 1'000'000'000;
  TimeSeries ts(kInterval);
  const Allocated a = Count([&] {
    // On the grid, alternating values: one run per append.
    for (std::size_t i = 0; i < kElements; ++i) {
      ts.Append(static_cast<std::int64_t>(i) * kInterval,
                i % 2 == 0 ? 0.25 : 0.75);
    }
  });
  ASSERT_EQ(ts.runs(), kElements);
  if (!SWAPSERVE_COUNTING_NEW) return;
  const double per_run = static_cast<double>(a.bytes) / kElements;
  EXPECT_LE(per_run, 12.5) << a.bytes << " bytes for " << kElements << " runs";
  EXPECT_LE(a.largest, TimeSeries::kMaxChunk * 12)
      << "largest allocation: " << a.largest << " bytes";
}

TEST(StatsMemoryTest, SamplesValueCostsEightBytes) {
  Samples s;
  const Allocated a = Count([&] {
    for (std::size_t i = 0; i < kElements; ++i) {
      s.Add(static_cast<double>((i * 7919) % kElements) * 1e-3);
    }
  });
  ASSERT_EQ(s.count(), kElements);
  if (!SWAPSERVE_COUNTING_NEW) return;
  const double per_value = static_cast<double>(a.bytes) / kElements;
  EXPECT_LE(per_value, 8.5) << a.bytes << " bytes for " << kElements
                            << " values";
  EXPECT_LE(a.largest, Samples::kMaxChunk * sizeof(double))
      << "largest allocation: " << a.largest << " bytes";
}

TEST(StatsMemoryTest, PercentilesAllocateNothing) {
  Samples s;
  for (std::size_t i = 0; i < kElements; ++i) {
    s.Add(static_cast<double>((i * 7919) % kElements) * 1e-3);
  }
  double median = 0.0;
  double p99 = 0.0;
  const Allocated a = Count([&] {
    median = s.Median();
    p99 = s.P99();
  });
  EXPECT_DOUBLE_EQ(median, 499.9995);
  EXPECT_DOUBLE_EQ(p99, 989.99901);
  if (!SWAPSERVE_COUNTING_NEW) return;
  EXPECT_EQ(a.bytes, 0u) << "Median() + P99() on " << kElements << " values";
}

}  // namespace
}  // namespace swapserve
