#include "sim/simulation.h"

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "sim/task.h"
#include "sim/time.h"

namespace swapserve::sim {
namespace {

TEST(SimTimeTest, Arithmetic) {
  SimTime t(0);
  t = t + Seconds(2.5);
  EXPECT_DOUBLE_EQ(t.ToSeconds(), 2.5);
  EXPECT_DOUBLE_EQ((t - SimTime(0)).ToSeconds(), 2.5);
  EXPECT_EQ(Seconds(1) + Millis(500), Millis(1500));
  EXPECT_EQ(Minutes(2), Seconds(120));
  EXPECT_EQ(Hours(1), Minutes(60));
  EXPECT_EQ(Days(1), Hours(24));
}

TEST(SimTimeTest, Formatting) {
  EXPECT_EQ(Seconds(12.5).ToString(), "12.500s");
  EXPECT_EQ(SimTime(0).ToString(), "0.000s");
}

TEST(SimulationTest, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(Seconds(3), [&] { order.push_back(3); });
  sim.Schedule(Seconds(1), [&] { order.push_back(1); });
  sim.Schedule(Seconds(2), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.Now().ToSeconds(), 3.0);
}

TEST(SimulationTest, SameInstantFiresInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Seconds(1), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulationTest, CallbacksMayScheduleMoreEvents) {
  Simulation sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) sim.Schedule(Seconds(1), chain);
  };
  sim.Schedule(Seconds(1), chain);
  sim.Run();
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(sim.Now().ToSeconds(), 5.0);
}

TEST(SimulationTest, RunUntilStopsAtDeadline) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(Seconds(1), [&] { ++fired; });
  sim.Schedule(Seconds(10), [&] { ++fired; });
  sim.RunUntil(SimTime(0) + Seconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.Now().ToSeconds(), 5.0);
  EXPECT_TRUE(sim.HasPendingEvents());
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, RunUntilAdvancesClockToDeadlineWhenIdle) {
  Simulation sim;
  sim.RunUntil(SimTime(0) + Seconds(42));
  EXPECT_DOUBLE_EQ(sim.Now().ToSeconds(), 42.0);
}

TEST(SimulationTest, ProcessedEventCount) {
  Simulation sim;
  for (int i = 0; i < 7; ++i) sim.Schedule(Seconds(i), [] {});
  sim.Run();
  EXPECT_EQ(sim.processed_events(), 7u);
}

TEST(SimulationTest, WaitUntilInThePastResumesImmediately) {
  Simulation sim;
  std::vector<double> resumed_at;
  std::uint64_t events_after_first_wait = 0;
  sim.Go([&]() -> Task<> {
    co_await sim.Delay(Seconds(5));
    // Deadline already passed: the awaiter is constructed with a clamped
    // zero duration (never a negative SimDuration) and resumes inline
    // without touching the event queue.
    const std::uint64_t before = sim.processed_events();
    co_await sim.WaitUntil(SimTime(0) + Seconds(3));
    events_after_first_wait = sim.processed_events() - before;
    resumed_at.push_back(sim.Now().ToSeconds());
    co_await sim.WaitUntil(sim.Now());  // boundary: deadline == Now()
    resumed_at.push_back(sim.Now().ToSeconds());
  });
  sim.Run();
  EXPECT_EQ(resumed_at, (std::vector<double>{5.0, 5.0}));
  EXPECT_EQ(events_after_first_wait, 0u);
}

TEST(SimulationTest, WaitUntilFutureDeadline) {
  Simulation sim;
  double resumed_at = -1;
  sim.Go([&]() -> Task<> {
    co_await sim.WaitUntil(SimTime(0) + Seconds(7));
    resumed_at = sim.Now().ToSeconds();
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(resumed_at, 7.0);
}

TEST(SimulationTest, SameInstantTimerBeatsLaterPostedEvent) {
  // Events already in the timer heap for time T must fire before ready-ring
  // events enqueued *at* time T: global order is (at, seq) and the heap
  // entries carry smaller sequence numbers.
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(Millis(1), [&] {
    order.push_back(0);
    sim.Schedule(SimDuration(0), [&] { order.push_back(10); });
    sim.Schedule(SimDuration(0), [&] { order.push_back(11); });
  });
  for (int i = 1; i <= 4; ++i) {
    sim.Schedule(Millis(1), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 10, 11}));
}

TEST(SimulationTest, YieldRunsBehindQueuedSameInstantEvents) {
  Simulation sim;
  std::vector<int> order;
  sim.Go([&]() -> Task<> {
    order.push_back(0);
    sim.Schedule(SimDuration(0), [&] { order.push_back(1); });
    co_await sim.Yield();
    order.push_back(2);
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SimulationTest, OversizedCallablesStillFire) {
  // Payloads too big for the inline buffer take the heap fallback and are
  // counted; behavior is otherwise identical.
  Simulation sim;
  std::array<std::uint64_t, 16> big{};
  big[0] = 7;
  big[15] = 35;
  std::uint64_t sum = 0;
  sim.Schedule(Millis(1), [big, &sum] { sum = big[0] + big[15]; });
  sim.Run();
  EXPECT_EQ(sum, 42u);
  EXPECT_EQ(sim.alloc_stats().oversized_payloads, 1u);
}

TEST(SimulationTest, PendingEventsDroppedOnDestruction) {
  // Payload destructors must run when a Simulation is destroyed with
  // events still queued (in both the ring and the heap).
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  {
    Simulation sim;
    sim.Schedule(SimDuration(0), [t = token] { (void)t; });
    sim.Schedule(Seconds(1), [t = std::move(token)] { (void)t; });
  }
  EXPECT_TRUE(watch.expired());
}

TEST(SimulationTest, ZeroDelayFiresAtCurrentTime) {
  Simulation sim;
  double fire_time = -1;
  sim.Schedule(Seconds(2), [&] {
    sim.Schedule(SimDuration(0), [&] { fire_time = sim.Now().ToSeconds(); });
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(fire_time, 2.0);
}

// --- Moving a suspended sleeper (Reschedule / Cancel) ----------------------

// A coroutine asleep on a named awaiter, so a test can move or cancel it;
// it logs `id` when it wakes.
struct Sleeper {
  Simulation::DelayAwaiter* timer = nullptr;
  std::int64_t woke_ns = -1;
};

Task<> SleepFor(Simulation* sim, SimDuration d, Sleeper* s,
                std::vector<int>* order, int id) {
  Simulation::DelayAwaiter timer = sim->Delay(d);
  s->timer = &timer;
  co_await timer;
  s->timer = nullptr;
  s->woke_ns = sim->Now().ns();
  order->push_back(id);
}

TEST(RescheduleTest, EarlierInstantInALowerBucket) {
  Simulation sim;
  std::vector<int> order;
  Sleeper s;
  sim.Go(SleepFor(&sim, Seconds(1000), &s, &order, 1));
  sim.Schedule(Seconds(500), [&] { order.push_back(2); });
  sim.Schedule(Seconds(1), [&] {
    // From a top-level bucket down to one 1 s away.
    sim.Reschedule(*s.timer, sim.Now() + Seconds(1));
  });
  sim.Run();
  EXPECT_EQ(s.woke_ns, Seconds(2).ns());
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.Now(), SimTime(Seconds(500).ns()));
}

TEST(RescheduleTest, ToNowLandsBehindEventsQueuedForNow) {
  Simulation sim;
  std::vector<int> order;
  Sleeper s;
  sim.Go(SleepFor(&sim, Seconds(10), &s, &order, 9));
  sim.Schedule(Seconds(1), [&] {
    order.push_back(0);
    sim.Schedule(SimDuration(0), [&] { order.push_back(2); });
    sim.Reschedule(*s.timer, sim.Now());
    sim.Schedule(SimDuration(0), [&] { order.push_back(3); });
  });
  // Already queued for the instant before the move.
  sim.Schedule(Seconds(1), [&] { order.push_back(1); });
  sim.Run();
  EXPECT_EQ(s.woke_ns, Seconds(1).ns());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 9, 3}));
}

TEST(RescheduleTest, MovingABucketMinimumKeepsTheBucketDispatchable) {
  // 1000 ns and 1010 ns share the level-1 bucket of digit 15; the first is
  // its minimum. Moving it away must leave the bucket's cached minimum on
  // an entry it still holds, or Redistribute would open an empty instant.
  Simulation sim;
  std::vector<int> order;
  Sleeper min;
  Sleeper other;
  sim.Go(SleepFor(&sim, SimDuration(1000), &min, &order, 1));
  sim.Go(SleepFor(&sim, SimDuration(1010), &other, &order, 2));
  sim.Reschedule(*min.timer, SimTime(5000));
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(other.woke_ns, 1010);
  EXPECT_EQ(min.woke_ns, 5000);

  // The same bucket with its minimum moved earlier, into a lower level.
  Simulation sim2;
  std::vector<int> order2;
  Sleeper a;
  Sleeper b;
  sim2.Go(SleepFor(&sim2, SimDuration(1000), &a, &order2, 1));
  sim2.Go(SleepFor(&sim2, SimDuration(1010), &b, &order2, 2));
  sim2.Reschedule(*a.timer, SimTime(3));
  sim2.Run();
  EXPECT_EQ(order2, (std::vector<int>{1, 2}));
  EXPECT_EQ(a.woke_ns, 3);
  EXPECT_EQ(b.woke_ns, 1010);
}

TEST(RescheduleTest, MovingABucketsLastEntryClearsItsOccupancy) {
  Simulation sim;
  std::vector<int> order;
  Sleeper s;
  sim.Go(SleepFor(&sim, SimDuration(1000), &s, &order, 1));
  sim.Schedule(SimDuration(1 << 20), [&] { order.push_back(2); });
  // The only entry of its bucket moves to another level: a stale
  // occupancy bit would make Redistribute open the emptied bucket.
  sim.Reschedule(*s.timer, SimTime(70000));
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(s.woke_ns, 70000);
}

TEST(RescheduleTest, CancelLeavesTheSleeperToItsOwner) {
  Simulation sim;
  std::vector<int> order;
  Sleeper s;
  sim.Go(SleepFor(&sim, SimDuration(1000), &s, &order, 1));
  sim.Cancel(*s.timer);
  EXPECT_FALSE(sim.HasPendingEvents());
  sim.Run();
  EXPECT_TRUE(order.empty());
  // Its owner resumes it some other way.
  sim.Post(std::coroutine_handle<>::from_address(s.timer->entry.handle));
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(s.woke_ns, 0);
}

TEST(RescheduleTest, CancelTakesATimerOffTheCurrentInstant) {
  // A sleeper due now but not yet dispatched sits in the current-instant
  // list; cancelling it there must keep that list's tail right.
  Simulation sim;
  std::vector<int> order;
  Sleeper s;
  sim.Schedule(Seconds(1), [&] {
    order.push_back(0);
    sim.Cancel(*s.timer);
    sim.Schedule(SimDuration(0), [&] { order.push_back(2); });
  });
  sim.Go(SleepFor(&sim, Seconds(1), &s, &order, 1));
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
  EXPECT_EQ(s.woke_ns, -1);
  sim.Post(std::coroutine_handle<>::from_address(s.timer->entry.handle));
  sim.Run();
}

}  // namespace
}  // namespace swapserve::sim
