#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/combinators.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "sim/time.h"

namespace swapserve::sim {
namespace {

TEST(SimRwLockTest, ReadersShareWritersExclude) {
  Simulation sim;
  SimRwLock lock(sim);
  int readers_inside = 0;
  int max_readers = 0;
  bool writer_inside = false;
  bool overlap = false;

  auto reader = [&]() -> Task<> {
    auto guard = co_await lock.AcquireShared();
    ++readers_inside;
    max_readers = std::max(max_readers, readers_inside);
    if (writer_inside) overlap = true;
    co_await sim.Delay(Seconds(2));
    --readers_inside;
  };
  auto writer = [&]() -> Task<> {
    co_await sim.Delay(Seconds(1));
    auto guard = co_await lock.AcquireExclusive();
    writer_inside = true;
    if (readers_inside > 0) overlap = true;
    co_await sim.Delay(Seconds(2));
    writer_inside = false;
  };
  Spawn(reader());
  Spawn(reader());
  Spawn(writer());
  sim.Run();
  EXPECT_EQ(max_readers, 2);
  EXPECT_FALSE(overlap);
}

TEST(SimRwLockTest, QueuedWriterBlocksLaterReaders) {
  Simulation sim;
  SimRwLock lock(sim);
  std::vector<std::string> order;

  Spawn([&]() -> Task<> {  // reader 1, holds [0, 4]
    auto g = co_await lock.AcquireShared();
    order.push_back("r1");
    co_await sim.Delay(Seconds(4));
  });
  Spawn([&]() -> Task<> {  // writer arrives at t=1
    co_await sim.Delay(Seconds(1));
    auto g = co_await lock.AcquireExclusive();
    order.push_back("w");
    co_await sim.Delay(Seconds(1));
  });
  Spawn([&]() -> Task<> {  // reader 2 arrives at t=2: must wait for writer
    co_await sim.Delay(Seconds(2));
    auto g = co_await lock.AcquireShared();
    order.push_back("r2");
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"r1", "w", "r2"}));
}

TEST(SimRwLockTest, ReaderRunGrantedTogether) {
  Simulation sim;
  SimRwLock lock(sim);
  std::vector<double> grant_times;
  Spawn([&]() -> Task<> {  // writer holds [0, 3]
    auto g = co_await lock.AcquireExclusive();
    co_await sim.Delay(Seconds(3));
  });
  for (int i = 0; i < 3; ++i) {
    Spawn([&]() -> Task<> {
      co_await sim.Delay(Seconds(1));
      auto g = co_await lock.AcquireShared();
      grant_times.push_back(sim.Now().ToSeconds());
      co_await sim.Delay(Seconds(1));
    });
  }
  sim.Run();
  ASSERT_EQ(grant_times.size(), 3u);
  for (double t : grant_times) EXPECT_DOUBLE_EQ(t, 3.0);
}

TEST(SimRwLockTest, ExclusiveWaitsForAllReaders) {
  Simulation sim;
  SimRwLock lock(sim);
  double writer_at = -1;
  Spawn([&]() -> Task<> {
    auto g = co_await lock.AcquireShared();
    co_await sim.Delay(Seconds(5));
  });
  Spawn([&]() -> Task<> {
    auto g = co_await lock.AcquireShared();
    co_await sim.Delay(Seconds(7));
  });
  Spawn([&]() -> Task<> {
    co_await sim.Delay(Seconds(1));
    auto g = co_await lock.AcquireExclusive();
    writer_at = sim.Now().ToSeconds();
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(writer_at, 7.0);
}

TEST(SimRwLockTest, GuardMoveSemantics) {
  Simulation sim;
  SimRwLock lock(sim);
  Spawn([&]() -> Task<> {
    SimRwLock::SharedGuard outer;
    {
      SimRwLock::SharedGuard inner = co_await lock.AcquireShared();
      outer = std::move(inner);
      EXPECT_FALSE(inner.owns_lock());
    }
    EXPECT_EQ(lock.readers(), 1);  // inner's destruction must not release
    outer.Release();
    EXPECT_EQ(lock.readers(), 0);
  });
  sim.Run();
}

TEST(SimRwLockTest, StateAccessors) {
  Simulation sim;
  SimRwLock lock(sim);
  Spawn([&]() -> Task<> {
    auto g = co_await lock.AcquireExclusive();
    EXPECT_TRUE(lock.write_locked());
    co_await sim.Delay(Seconds(1));
  });
  Spawn([&]() -> Task<> {
    co_await sim.Delay(Millis(100));
    EXPECT_EQ(lock.waiting(), 0u);
    auto awaiting = [&]() -> Task<> {
      auto g = co_await lock.AcquireShared();
    };
    Spawn(awaiting());
    EXPECT_EQ(lock.waiting(), 1u);
    co_return;
  });
  sim.Run();
  EXPECT_FALSE(lock.write_locked());
  EXPECT_EQ(lock.readers(), 0);
}

TEST(WhenAllTest, WaitsForAllBranches) {
  Simulation sim;
  std::vector<Task<>> tasks;
  int done = 0;
  for (int i = 1; i <= 3; ++i) {
    tasks.push_back([](Simulation& s, int* d, int secs) -> Task<> {
      co_await s.Delay(Seconds(secs));
      ++*d;
    }(sim, &done, i));
  }
  double finished_at = -1;
  Spawn([&, tasks = std::move(tasks)]() mutable -> Task<> {
    co_await WhenAll(sim, tasks);
    finished_at = sim.Now().ToSeconds();
  });
  sim.Run();
  EXPECT_EQ(done, 3);
  EXPECT_DOUBLE_EQ(finished_at, 3.0);  // max, not sum
}

TEST(WhenAllTest, EmptyCompletesImmediately) {
  Simulation sim;
  bool done = false;
  Spawn([&]() -> Task<> {
    co_await WhenAll(sim, {});
    done = true;
  });
  sim.Run();
  EXPECT_TRUE(done);
}

TEST(WhenAllTest, TwoTaskOverloadRunsConcurrently) {
  Simulation sim;
  double finished_at = -1;
  Spawn([&]() -> Task<> {
    co_await WhenAll(sim, DelayFor(sim, Seconds(5)),
                     DelayFor(sim, Seconds(2)));
    finished_at = sim.Now().ToSeconds();
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(finished_at, 5.0);
}

}  // namespace
}  // namespace swapserve::sim
