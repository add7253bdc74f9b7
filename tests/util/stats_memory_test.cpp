// Heap bytes of the telemetry stores.
//
// The binary replaces the global allocator with a shim that counts the
// bytes of every allocation and the largest single one. It pins the
// stores' cost per element, counting every byte allocated, freed or not:
//   - a TimeSeries run is at most 12 bytes (a vector of 24-byte runs that
//     doubles allocates about 50 bytes per run over its growth), and what
//     its encoding takes: about 4 bytes for utilization-like runs (a
//     6-byte grid fraction, then a 1- to 3-byte run of zeros), 9 for a raw
//     double;
//   - a Samples value is 8 bytes (a doubling vector of doubles: about 16);
//   - a Samples value drawn from few distinct values costs what its code
//     does once its chunk is sealed: under 2 bytes for 300 distinct values
//     (9-bit codes and a 2.4 KB dictionary per 4,096 values), and almost
//     nothing for a run of zeros (0-bit codes, one 24-byte block per
//     chunk);
//   - chunks are never copied, so no single allocation is larger than one
//     chunk (a doubling vector's last block holds everything);
//   - a percentile query allocates nothing, packed chunks included (a
//     sorted copy: 8 bytes per value).
//
// Under asan/tsan the counting shim is compiled out (the sanitizer runtime
// owns operator new), as in tests/workload/trace_alloc_test.cpp, and the
// cases only run the stores.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <random>

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
  EXPECT_LE(a.largest, TimeSeries::kMaxChunk)
      << "largest allocation: " << a.largest << " bytes";
}

// GPU utilization as the monitor records it on a 1 s grid: busy ns over
// interval ns (k / 1e9 for k in [1, 1e9)), alternating with idle stretches
// of 1-200 zero samples.
TEST(StatsMemoryTest, UtilizationRunsCostUnderFourAndAHalfBytes) {
  constexpr std::int64_t kInterval = 1'000'000'000;
  std::mt19937_64 rng(7);
  TimeSeries ts(kInterval);
  const Allocated a = Count([&] {
    std::int64_t at = 0;
    for (std::size_t i = 0; i < kElements / 2; ++i) {
      const auto k = static_cast<double>(1 + rng() % (kInterval - 1));
      ts.Append(at, k / static_cast<double>(kInterval));
      const std::size_t idle = 1 + rng() % 200;
      ts.Append(at + kInterval, 0.0, idle);
      at += static_cast<std::int64_t>(1 + idle) * kInterval;
    }
  });
  ASSERT_EQ(ts.runs(), kElements);
  if (!SWAPSERVE_COUNTING_NEW) return;
  const double per_run = static_cast<double>(a.bytes) / kElements;
  EXPECT_LE(per_run, 4.5) << a.bytes << " bytes for " << kElements << " runs";
  EXPECT_LE(a.largest, TimeSeries::kMaxChunk)
      << "largest allocation: " << a.largest << " bytes";
}

// Doubles that are no grid fraction: 1 + a random 52-bit mantissa.
TEST(StatsMemoryTest, RawRunsCostUnderNineAndAHalfBytes) {
  constexpr std::int64_t kInterval = 1'000'000'000;
  std::mt19937_64 rng(11);
  TimeSeries ts(kInterval);
  const Allocated a = Count([&] {
    for (std::size_t i = 0; i < kElements; ++i) {
      const std::uint64_t mantissa = rng() >> 12;
      ts.Append(static_cast<std::int64_t>(i) * kInterval,
                std::bit_cast<double>(std::bit_cast<std::uint64_t>(1.0) |
                                      mantissa));
    }
  });
  ASSERT_EQ(ts.runs(), kElements);
  if (!SWAPSERVE_COUNTING_NEW) return;
  const double per_run = static_cast<double>(a.bytes) / kElements;
  EXPECT_LE(per_run, 9.5) << a.bytes << " bytes for " << kElements << " runs";
  EXPECT_LE(a.largest, TimeSeries::kMaxChunk)
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

// Value i of a 300-value cycle, in a scrambled order.
double FewDistinct(std::size_t i) {
  return static_cast<double>((i * 7919) % 300) * 1e-3;
}

TEST(StatsMemoryTest, FewDistinctValuesPackUnderTwoBytes) {
  Samples s;
  const Allocated a = Count([&] {
    for (std::size_t i = 0; i < kElements; ++i) s.Add(FewDistinct(i));
  });
  ASSERT_EQ(s.count(), kElements);
  if (!SWAPSERVE_COUNTING_NEW) return;
  const double per_value = static_cast<double>(a.bytes) / kElements;
  EXPECT_LE(per_value, 2.0) << a.bytes << " bytes for " << kElements
                            << " values";
  EXPECT_LE(a.largest, Samples::kMaxChunk * sizeof(double))
      << "largest allocation: " << a.largest << " bytes";
}

TEST(StatsMemoryTest, ZerosPackToAlmostNothing) {
  Samples s;
  const Allocated a = Count([&] {
    for (std::size_t i = 0; i < kElements; ++i) s.Add(0.0);
  });
  ASSERT_EQ(s.count(), kElements);
  if (!SWAPSERVE_COUNTING_NEW) return;
  const double per_value = static_cast<double>(a.bytes) / kElements;
  EXPECT_LE(per_value, 0.1) << a.bytes << " bytes for " << kElements
                            << " zeros";
}

TEST(StatsMemoryTest, PercentilesAllocateNothing) {
  Samples distinct;
  Samples few;
  Samples zeros;
  for (std::size_t i = 0; i < kElements; ++i) {
    distinct.Add(static_cast<double>((i * 7919) % kElements) * 1e-3);
    few.Add(FewDistinct(i));
    zeros.Add(0.0);
  }
  double median = 0.0;
  double p99 = 0.0;
  double few_median = 0.0;
  double few_p99 = 0.0;
  double zeros_median = 1.0;
  double zeros_p99 = 1.0;
  const Allocated a = Count([&] {
    median = distinct.Median();
    p99 = distinct.P99();
    few_median = few.Median();
    few_p99 = few.P99();
    zeros_median = zeros.Median();
    zeros_p99 = zeros.P99();
  });
  EXPECT_DOUBLE_EQ(median, 499.9995);
  EXPECT_DOUBLE_EQ(p99, 989.99901);
  // 1M values cycle through 0.000 ... 0.299, 3,333 or 3,334 of each.
  EXPECT_NEAR(few_median, 0.15, 1e-12);
  EXPECT_NEAR(few_p99, 0.29601, 1e-12);
  EXPECT_EQ(zeros_median, 0.0);
  EXPECT_EQ(zeros_p99, 0.0);
  if (!SWAPSERVE_COUNTING_NEW) return;
  EXPECT_EQ(a.bytes, 0u) << "Median() + P99() on three sets of " << kElements
                         << " values";
}

}  // namespace
}  // namespace swapserve
