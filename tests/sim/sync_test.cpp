#include "sim/sync.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulation.h"
#include "sim/task.h"
#include "sim/time.h"

namespace swapserve::sim {
namespace {

TEST(SimMutexTest, ProvidesMutualExclusionAcrossSuspension) {
  Simulation sim;
  SimMutex mu(sim);
  int inside = 0;
  int max_inside = 0;
  auto critical = [&]() -> Task<> {
    auto guard = co_await mu.Acquire();
    ++inside;
    max_inside = std::max(max_inside, inside);
    co_await sim.Delay(Seconds(1));  // hold across a suspension point
    --inside;
  };
  for (int i = 0; i < 5; ++i) Spawn(critical());
  sim.Run();
  EXPECT_EQ(max_inside, 1);
  EXPECT_EQ(inside, 0);
  EXPECT_FALSE(mu.locked());
  // 5 holders x 1s serialized.
  EXPECT_DOUBLE_EQ(sim.Now().ToSeconds(), 5.0);
}

TEST(SimMutexTest, FifoOrdering) {
  Simulation sim;
  SimMutex mu(sim);
  std::vector<int> order;
  auto proc = [&](int id) -> Task<> {
    co_await sim.Delay(Millis(id));  // stagger arrival: 1, 2, 3
    auto guard = co_await mu.Acquire();
    co_await sim.Delay(Seconds(1));
    order.push_back(id);
  };
  for (int id = 1; id <= 3; ++id) Spawn(proc(id));
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimMutexTest, GuardMoveTransfersOwnership) {
  Simulation sim;
  SimMutex mu(sim);
  bool checked = false;
  Spawn([&]() -> Task<> {
    SimMutex::Guard outer;
    {
      SimMutex::Guard inner = co_await mu.Acquire();
      outer = std::move(inner);
      EXPECT_FALSE(inner.owns_lock());
      EXPECT_TRUE(outer.owns_lock());
    }
    EXPECT_TRUE(mu.locked());  // inner's destruction must not unlock
    checked = true;
  });
  sim.Run();
  EXPECT_TRUE(checked);
  EXPECT_FALSE(mu.locked());
}

TEST(SimEventTest, WaitersReleaseOnSet) {
  Simulation sim;
  SimEvent ev(sim);
  int released = 0;
  for (int i = 0; i < 3; ++i) {
    Spawn([&]() -> Task<> {
      co_await ev.Wait();
      ++released;
    });
  }
  sim.Schedule(Seconds(2), [&] { ev.Set(); });
  sim.Run();
  EXPECT_EQ(released, 3);
  EXPECT_TRUE(ev.is_set());
}

TEST(SimEventTest, SetEventDoesNotBlock) {
  Simulation sim;
  SimEvent ev(sim);
  ev.Set();
  double stamp = -1;
  Spawn([&]() -> Task<> {
    co_await ev.Wait();
    stamp = sim.Now().ToSeconds();
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(stamp, 0.0);
}

TEST(SimEventTest, ResetBlocksAgain) {
  Simulation sim;
  SimEvent ev(sim);
  ev.Set();
  ev.Reset();
  bool released = false;
  Spawn([&]() -> Task<> {
    co_await ev.Wait();
    released = true;
  });
  sim.Schedule(Seconds(1), [&] { ev.Set(); });
  sim.Run();
  EXPECT_TRUE(released);
}

TEST(SimEventTest, PulseWakesWithoutLatching) {
  Simulation sim;
  SimEvent ev(sim);
  int wakes = 0;
  Spawn([&]() -> Task<> {
    co_await ev.Wait();
    ++wakes;
    co_await ev.Wait();  // must block again: Pulse does not latch
    ++wakes;
  });
  sim.Schedule(Seconds(1), [&] { ev.Pulse(); });
  sim.Schedule(Seconds(2), [&] { ev.Pulse(); });
  sim.Run();
  EXPECT_EQ(wakes, 2);
  EXPECT_FALSE(ev.is_set());
}

// WakeNow resumes the waiters inside the caller, each once: a waiter that
// waits again stays queued instead of being resumed again.
TEST(SimEventTest, WakeNowResumesEachCurrentWaiterOnce) {
  Simulation sim;
  SimEvent ev(sim);
  bool done = false;
  int wakes = 0;
  for (int i = 0; i < 2; ++i) {
    Spawn([&]() -> Task<> {
      while (!done) {
        co_await ev.Wait();
        ++wakes;
      }
    });
  }
  sim.Schedule(Seconds(1), [&] {
    ev.WakeNow();
    EXPECT_EQ(wakes, 2);
    EXPECT_EQ(ev.waiting(), 2u);
  });
  sim.Schedule(Seconds(2), [&] {
    done = true;
    ev.Pulse();
  });
  sim.Run();
  EXPECT_EQ(wakes, 4);
  EXPECT_EQ(ev.waiting(), 0u);
}

}  // namespace
}  // namespace swapserve::sim
