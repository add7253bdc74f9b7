// Trace recorder tests: ring semantics, span timing against the virtual
// clock, inert-span behavior, and the interned ring's resolution of
// numbers and prefixed names back to the strings exporters print.

#include "obs/trace.h"

#include <cstdint>
#include <string>
#include <type_traits>

#include <gtest/gtest.h>

#include "sim/simulation.h"

namespace swapserve::obs {
namespace {

TEST(TraceRecorderTest, RecordAndSnapshotInOrder) {
  sim::Simulation sim;
  TraceRecorder rec(sim, /*capacity=*/8);
  rec.Instant("a", "test", "main");
  rec.Instant("b", "test", "main");
  rec.Instant("c", "test", "main");
  EXPECT_EQ(rec.size(), 3u);
  EXPECT_EQ(rec.total_emitted(), 3u);
  EXPECT_EQ(rec.dropped(), 0u);
  const std::vector<TraceEvent> snap = rec.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a");
  EXPECT_EQ(snap[1].name, "b");
  EXPECT_EQ(snap[2].name, "c");
}

TEST(TraceRecorderTest, RingWrapsKeepingNewest) {
  sim::Simulation sim;
  TraceRecorder rec(sim, /*capacity=*/4);
  for (int i = 0; i < 6; ++i) rec.Instant(std::to_string(i), "test", "main");
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.total_emitted(), 6u);
  EXPECT_EQ(rec.dropped(), 2u);
  const std::vector<TraceEvent> snap = rec.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().name, "2");  // oldest retained
  EXPECT_EQ(snap.back().name, "5");
}

TEST(TraceRecorderTest, SpanMeasuresVirtualTime) {
  sim::Simulation sim;
  TraceRecorder rec(sim, /*capacity=*/8);
  Span span;
  sim.Schedule(sim::Seconds(1), [&] {
    span = rec.StartSpan("work", "test", "main");
    span.AddArg("k", "v");
  });
  sim.Schedule(sim::Seconds(3), [&] { span.End(); });
  sim.Run();
  const std::vector<TraceEvent> snap = rec.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].phase, TraceEvent::Phase::kComplete);
  EXPECT_EQ(snap[0].ts_ns, sim::Seconds(1).ns());
  EXPECT_EQ(snap[0].dur_ns, sim::Seconds(2).ns());
  EXPECT_EQ(snap[0].name, "work");
  EXPECT_EQ(snap[0].category, "test");
  EXPECT_EQ(snap[0].track, "main");
  ASSERT_EQ(snap[0].args.size(), 1u);
  EXPECT_EQ(snap[0].args[0].first, "k");
  EXPECT_EQ(snap[0].args[0].second, "v");
}

TEST(TraceRecorderTest, NestedSpansShareTrack) {
  sim::Simulation sim;
  TraceRecorder rec(sim, /*capacity=*/8);
  Span outer;
  Span inner;
  sim.Schedule(sim::Seconds(0), [&] {
    outer = rec.StartSpan("outer", "test", "model-a");
  });
  sim.Schedule(sim::Seconds(1), [&] {
    inner = rec.StartSpan("inner", "test", "model-a");
  });
  sim.Schedule(sim::Seconds(2), [&] { inner.End(); });
  sim.Schedule(sim::Seconds(4), [&] { outer.End(); });
  sim.Run();
  const std::vector<TraceEvent> snap = rec.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  // Inner ends first so it emits first; time containment is what viewers
  // use to nest them.
  EXPECT_EQ(snap[0].name, "inner");
  EXPECT_EQ(snap[1].name, "outer");
  EXPECT_GE(snap[0].ts_ns, snap[1].ts_ns);
  EXPECT_LE(snap[0].ts_ns + snap[0].dur_ns,
            snap[1].ts_ns + snap[1].dur_ns);
}

TEST(TraceRecorderTest, EndIsIdempotent) {
  sim::Simulation sim;
  TraceRecorder rec(sim, /*capacity=*/8);
  Span span = rec.StartSpan("once", "test", "main");
  span.End();
  span.End();
  EXPECT_EQ(rec.total_emitted(), 1u);
}

TEST(TraceRecorderTest, DefaultAndMovedFromSpansAreInert) {
  sim::Simulation sim;
  TraceRecorder rec(sim, /*capacity=*/8);
  {
    Span inert;  // never attached
    EXPECT_FALSE(inert.active());
  }
  Span a = rec.StartSpan("moved", "test", "main");
  Span b = std::move(a);
  EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.active());
  a.End();  // no-op
  EXPECT_EQ(rec.total_emitted(), 0u);
  b.End();
  EXPECT_EQ(rec.total_emitted(), 1u);
}

TEST(TraceRecorderTest, DisabledRecorderEmitsNothing) {
  sim::Simulation sim;
  TraceRecorder rec(sim, /*capacity=*/8);
  rec.set_enabled(false);
  Span span = rec.StartSpan("off", "test", "main");
  span.End();
  rec.Instant("off-instant", "test", "main");
  EXPECT_EQ(rec.total_emitted(), 0u);
  EXPECT_EQ(rec.Snapshot().size(), 0u);
}

TEST(TraceRecorderTest, InstantCarriesArgs) {
  sim::Simulation sim;
  TraceRecorder rec(sim, /*capacity=*/8);
  rec.Instant("decision", "policy", "gpu0", {{"victim", "model-b"}});
  const std::vector<TraceEvent> snap = rec.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].phase, TraceEvent::Phase::kInstant);
  EXPECT_EQ(snap[0].dur_ns, 0);
  ASSERT_EQ(snap[0].args.size(), 1u);
  EXPECT_EQ(snap[0].args[0].second, "model-b");
}

// A bool would convert to the real 1.0 and render as "1.000000".
static_assert(!std::is_constructible_v<TraceValue, bool>);

TEST(TraceRecorderTest, NumbersRenderAsToStringDid) {
  sim::Simulation sim;
  TraceRecorder rec(sim, /*capacity=*/8);
  const std::int64_t bytes = 1073741824;
  const std::uint64_t id = 18;
  const double elapsed = 0.125;
  {
    Span span = rec.StartSpan("h2d", "ckpt", "model-a");
    span.AddArg("bytes", bytes);
    span.AddArg("snapshot", id);
    span.AddArg("priority", -1);
    span.AddArg("elapsed_s", elapsed);
    span.AddArg("resident", "true");
  }
  const std::vector<TraceEvent> snap = rec.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  ASSERT_EQ(snap[0].args.size(), 5u);
  EXPECT_EQ(snap[0].args[0].second, std::to_string(bytes));
  EXPECT_EQ(snap[0].args[0].second, "1073741824");
  EXPECT_EQ(snap[0].args[1].second, std::to_string(id));
  EXPECT_EQ(snap[0].args[2].second, "-1");
  EXPECT_EQ(snap[0].args[3].second, std::to_string(elapsed));
  EXPECT_EQ(snap[0].args[4].second, "true");
}

TEST(TraceRecorderTest, PrefixedInstantNamesAreJoined) {
  sim::Simulation sim;
  TraceRecorder rec(sim, /*capacity=*/8);
  const std::string victim = "model-b";
  rec.Instant({"preempt:", victim}, "controller", "gpu0",
              {{"victim", victim}, {"frees_bytes", 4096}});
  rec.Instant({"preempt:", ""}, "controller", "gpu0");
  const std::vector<TraceEvent> snap = rec.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "preempt:model-b");
  EXPECT_EQ(snap[0].args[1].first, "frees_bytes");
  EXPECT_EQ(snap[0].args[1].second, "4096");
  EXPECT_EQ(snap[1].name, "preempt:");
}

TEST(TraceRecorderTest, InternTableIsBoundedByDistinctStrings) {
  sim::Simulation sim;
  TraceRecorder rec(sim, /*capacity=*/64);
  for (int i = 0; i < 1000; ++i) {
    Span span = rec.StartSpan("transfer", "link", "link:pcie");
    span.AddArg("bytes", std::int64_t{1} << (i % 40));
    rec.Instant({"preempt:", i % 2 == 0 ? "a" : "b"}, "controller", "gpu0",
                {{"request_id", i}});
  }
  // transfer, link, link:pcie, bytes, preempt:a, preempt:b, controller,
  // gpu0, request_id — per-event numbers never reach the table.
  EXPECT_EQ(rec.interned_strings(), 9u);
  EXPECT_EQ(rec.total_emitted(), 2000u);
  EXPECT_EQ(rec.dropped(), 2000u - 64u);
  const std::vector<TraceEvent> snap = rec.Snapshot();
  ASSERT_EQ(snap.size(), 64u);
  // The last span ends after the last instant, so it is recorded last.
  EXPECT_EQ(snap[62].name, "preempt:b");
  EXPECT_EQ(snap[62].args[0].second, "999");
  EXPECT_EQ(snap[63].name, "transfer");
  EXPECT_EQ(snap[63].args[0].second, std::to_string(std::int64_t{1} << 39));
}

TEST(TraceRecorderTest, SpanCarriesMaxArgs) {
  sim::Simulation sim;
  TraceRecorder rec(sim, /*capacity=*/8);
  {
    Span span = rec.StartSpan("wide", "test", "main");
    for (std::size_t i = 0; i < kMaxTraceArgs; ++i) {
      span.AddArg("k" + std::to_string(i), static_cast<int>(i));
    }
  }
  const std::vector<TraceEvent> snap = rec.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  ASSERT_EQ(snap[0].args.size(), kMaxTraceArgs);
  EXPECT_EQ(snap[0].args.back().first, "k5");
  EXPECT_EQ(snap[0].args.back().second, "5");
}

TEST(TraceRecorderTest, CapacityIsReportedBeforeTheRingExists) {
  sim::Simulation sim;
  TraceRecorder rec(sim, /*capacity=*/32);
  EXPECT_EQ(rec.capacity(), 32u);
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_TRUE(rec.Snapshot().empty());
  rec.Instant("first", "test", "main");
  EXPECT_EQ(rec.capacity(), 32u);
  EXPECT_EQ(rec.size(), 1u);
}

}  // namespace
}  // namespace swapserve::obs
