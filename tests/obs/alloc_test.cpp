// Zero-allocation gate for the telemetry fast path.
//
// The binary replaces the global allocator with a counting shim. A registry
// lookup of an existing series must borrow its name and label views (no
// key copy, no label vector), and a disabled trace recorder must hand out
// inert spans and drop instants before building any string. Each case runs
// once to warm the series and the registry's key buffer, then counts the
// allocations of a second identical run.
//
// Telemetry that is off must cost nothing beyond its level check: a
// disabled SWAP_LOG evaluates none of its operands, a recorder that never
// records owns no ring, and an enabled recorder records an event whose
// strings it has already interned without allocating.
//
// Under asan/tsan the counting shim is compiled out (the sanitizer runtime
// owns operator new), as in tests/sim/alloc_test.cpp, and the cases only
// check that the calls still work.

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "obs/observability.h"
#include "sim/simulation.h"
#include "util/log.h"

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
std::uint64_t g_alloc_bytes = 0;
}  // namespace

#if SWAPSERVE_COUNTING_NEW
void* operator new(std::size_t n) {
  ++g_alloc_count;
  g_alloc_bytes += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace swapserve::obs {
namespace {

// Heap allocations made by `fn`'s second call (the first one warms up).
template <typename F>
std::uint64_t AllocationsAfterWarmup(F fn) {
  fn();
  const std::uint64_t before = g_alloc_count;
  fn();
  return g_alloc_count - before;
}

void ExpectNoAllocations(std::uint64_t allocs) {
  if (SWAPSERVE_COUNTING_NEW) {
    EXPECT_EQ(allocs, 0u);
  }
}

// Label values longer than any small-string buffer, so a copy would show.
const std::string kModel = "llama-3.1-8b-instruct-fp16-replica";
const std::string kLink = "node-0-gpu3-pcie-h2d-direction";

TEST(ObsAllocTest, RegistryLookupsOfExistingSeriesDoNotAllocate) {
  MetricsRegistry reg;
  ExpectNoAllocations(AllocationsAfterWarmup([&] {
    reg.GetCounter("swapserve_requests_total",
                   {{"model", kModel}, {"outcome", "completed"}})
        .Increment();
    reg.GetGauge("swapserve_link_in_flight", {{"link", kLink}}).Set(2.0);
    reg.GetHistogram("swapserve_request_ttft_seconds", {{"model", kModel}})
        .Observe(0.25);
  }));
  EXPECT_EQ(reg.series_count(), 3u);
  EXPECT_DOUBLE_EQ(reg.GetCounter("swapserve_requests_total",
                                  {{"outcome", "completed"},
                                   {"model", kModel}})
                       .value(),
                   2.0);
}

TEST(ObsAllocTest, HelpersOnExistingSeriesDoNotAllocate) {
  sim::Simulation sim;
  Observability obs(sim, /*trace_capacity=*/16);
  ExpectNoAllocations(AllocationsAfterWarmup([&] {
    IncCounter(&obs, "swapserve_stream_chunks_total", {{"model", kModel}});
    SetGauge(&obs, "swapserve_queue_depth", {{"model", kModel}}, 3.0);
    Observe(&obs, "swapserve_queue_wait_seconds", {{"model", kModel}}, 0.5);
  }));
  EXPECT_EQ(obs.metrics.series_count(), 3u);
}

TEST(ObsAllocTest, DisabledTracingDoesNotAllocate) {
  sim::Simulation sim;
  Observability obs(sim, /*trace_capacity=*/16);
  obs.trace.set_enabled(false);
  const std::string track = "link:" + kLink;
  bool any_active = false;
  ExpectNoAllocations(AllocationsAfterWarmup([&] {
    Span span = StartSpan(&obs, "request.serve", "worker", kModel);
    span.AddArg("request_id", "1234567890123456789");
    any_active |= span.active();
    span.End();
    Span transfer = StartSpan(&obs, "transfer", "link", track);
    any_active |= transfer.active();
    Instant(&obs, "reject:queue_full", "handler", kModel,
            {{"request_id", "1234567890123456789"}});
  }));
  EXPECT_FALSE(any_active);
  EXPECT_EQ(obs.trace.total_emitted(), 0u);
}

// Counts its evaluations.
int g_counted_calls = 0;
int Counted() { return ++g_counted_calls; }

TEST(ObsAllocTest, DisabledLogStatementEvaluatesNothing) {
  ASSERT_FALSE(Logger::Global().Enabled(LogLevel::kInfo));
  g_counted_calls = 0;
  ExpectNoAllocations(AllocationsAfterWarmup([] {
    SWAP_LOG(kInfo, "a-component-name-past-the-small-string-buffer")
        << "call " << Counted() << " of " << kModel;
  }));
  EXPECT_EQ(g_counted_calls, 0);
}

TEST(ObsAllocTest, ObservabilityAllocatesNoRingUntilFirstEvent) {
  sim::Simulation sim;
  const std::uint64_t before = g_alloc_bytes;
  {
    Observability obs(sim);
    EXPECT_EQ(obs.trace.capacity(), TraceRecorder::kDefaultCapacity);
    if (SWAPSERVE_COUNTING_NEW) {
      EXPECT_LT(g_alloc_bytes - before, 64u * 1024u);
    }
  }
}

TEST(ObsAllocTest, DisabledRecorderTakesNumbersAndPrefixedNamesFree) {
  sim::Simulation sim;
  Observability obs(sim, /*trace_capacity=*/16);
  obs.trace.set_enabled(false);
  const std::int64_t bytes = std::int64_t{1} << 40;
  bool any_active = false;
  ExpectNoAllocations(AllocationsAfterWarmup([&] {
    Span span = StartSpan(&obs, "ckpt.swap_in", "ckpt", kModel);
    span.AddArg("dirty_bytes", bytes);
    span.AddArg("request_id", std::uint64_t{1234567890123456789});
    any_active |= span.active();
    Instant(&obs, {"preempt:", kModel}, "controller", kLink,
            {{"victim_demand", 7}, {"frees_bytes", bytes}});
  }));
  EXPECT_FALSE(any_active);
  EXPECT_EQ(obs.trace.total_emitted(), 0u);
}

TEST(ObsAllocTest, EnabledRecorderRecordsInternedEventsWithoutAllocating) {
  sim::Simulation sim;
  Observability obs(sim, /*trace_capacity=*/16);
  const std::int64_t bytes = std::int64_t{1} << 40;
  ExpectNoAllocations(AllocationsAfterWarmup([&] {
    Span span = StartSpan(&obs, "ckpt.swap_in", "ckpt", kModel);
    span.AddArg("dirty_bytes", bytes);
    span.AddArg("owner", kModel);
    span.AddArg("elapsed_s", 0.25);
    span.End();
    Instant(&obs, {"preempt:", kModel}, "controller", kLink,
            {{"victim", kModel}, {"frees_bytes", bytes}});
  }));
  EXPECT_EQ(obs.trace.total_emitted(), 4u);
}

}  // namespace
}  // namespace swapserve::obs
