// Simulator substrate property sweeps: determinism, timer ordering,
// channel conservation, and lock exclusion under random interleavings.

#include <map>

#include <gtest/gtest.h>

#include "sim/channel.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace swapserve::sim {
namespace {

class TimerOrderProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimerOrderProperty, CallbacksFireInNondecreasingTimeOrder) {
  Simulation sim;
  Rng rng(GetParam());
  std::vector<double> fire_times;
  for (int i = 0; i < 500; ++i) {
    const auto at = Millis(static_cast<double>(rng.UniformInt(0, 10000)));
    sim.Schedule(at, [&fire_times, &sim] {
      fire_times.push_back(sim.Now().ToSeconds());
    });
  }
  sim.Run();
  ASSERT_EQ(fire_times.size(), 500u);
  for (std::size_t i = 1; i < fire_times.size(); ++i) {
    EXPECT_GE(fire_times[i], fire_times[i - 1]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimerOrderProperty,
                         ::testing::Values(1u, 7u, 42u, 4242u));

class ChannelConservationProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(ChannelConservationProperty, EveryValueDeliveredExactlyOnce) {
  const auto [seed, capacity] = GetParam();
  Simulation sim;
  Channel<int> ch(sim, static_cast<std::size_t>(capacity));
  Rng rng(seed);
  const int kSenders = 5;
  const int kPerSender = 40;

  int sends_done = 0;
  for (int s = 0; s < kSenders; ++s) {
    const auto jitter = Millis(static_cast<double>(rng.UniformInt(0, 50)));
    Spawn([&ch, &sim, &sends_done, s, jitter]() -> Task<> {
      for (int i = 0; i < kPerSender; ++i) {
        co_await sim.Delay(jitter);
        const bool ok = co_await ch.Send(s * 1000 + i);
        EXPECT_TRUE(ok);
      }
      if (++sends_done == kSenders) ch.Close();
    });
  }

  std::map<int, int> received;
  for (int r = 0; r < 3; ++r) {
    Spawn([&ch, &received]() -> Task<> {
      while (auto v = co_await ch.Recv()) ++received[*v];
    });
  }
  sim.Run();

  EXPECT_EQ(received.size(),
            static_cast<std::size_t>(kSenders * kPerSender));
  for (const auto& [value, count] : received) {
    EXPECT_EQ(count, 1) << "value " << value << " duplicated";
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndCapacities, ChannelConservationProperty,
    ::testing::Combine(::testing::Values(11u, 97u),
                       ::testing::Values(0, 1, 8, 64)));

class MutexExclusionProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(MutexExclusionProperty, NoTwoHoldersEverOverlap) {
  Simulation sim;
  SimMutex mu(sim);
  Rng rng(GetParam());
  int inside = 0;
  bool overlap = false;
  // The acquire fast path relies on it: a queued waiter implies a holder.
  bool queue_without_holder = false;
  auto check_queue = [&] {
    if (mu.waiting() > 0 && !mu.locked()) queue_without_holder = true;
  };
  int completions = 0;
  for (int i = 0; i < 60; ++i) {
    const auto arrive = Millis(static_cast<double>(rng.UniformInt(0, 300)));
    const auto hold = Millis(static_cast<double>(rng.UniformInt(1, 40)));
    Spawn([&, arrive, hold]() -> Task<> {
      co_await sim.Delay(arrive);
      auto guard = co_await mu.Acquire();
      check_queue();
      if (++inside > 1) overlap = true;
      co_await sim.Delay(hold);
      --inside;
      guard.Release();
      check_queue();
      ++completions;
    });
  }
  sim.Run();
  EXPECT_FALSE(overlap);
  EXPECT_FALSE(queue_without_holder);
  EXPECT_EQ(completions, 60);
  EXPECT_FALSE(mu.locked());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutexExclusionProperty,
                         ::testing::Values(5u, 55u, 555u));

class RwLockProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RwLockProperty, ReadersNeverOverlapWriters) {
  Simulation sim;
  SimRwLock lock(sim);
  Rng rng(GetParam());
  int readers = 0;
  int writers = 0;
  bool violation = false;
  // The acquire fast path relies on it: a queued waiter implies a holder.
  bool queue_without_holder = false;
  auto check_queue = [&] {
    if (lock.waiting() > 0 && !lock.write_locked() && lock.readers() == 0) {
      queue_without_holder = true;
    }
  };
  int completions = 0;
  for (int i = 0; i < 80; ++i) {
    const bool writer = rng.Bernoulli(0.3);
    const auto arrive = Millis(static_cast<double>(rng.UniformInt(0, 400)));
    const auto hold = Millis(static_cast<double>(rng.UniformInt(1, 30)));
    Spawn([&, writer, arrive, hold]() -> Task<> {
      co_await sim.Delay(arrive);
      if (writer) {
        auto g = co_await lock.AcquireExclusive();
        check_queue();
        if (++writers > 1 || readers > 0) violation = true;
        co_await sim.Delay(hold);
        --writers;
        g.Release();
      } else {
        auto g = co_await lock.AcquireShared();
        check_queue();
        ++readers;
        if (writers > 0) violation = true;
        co_await sim.Delay(hold);
        --readers;
        g.Release();
      }
      check_queue();
      ++completions;
    });
  }
  sim.Run();
  EXPECT_FALSE(violation);
  EXPECT_FALSE(queue_without_holder);
  EXPECT_EQ(completions, 80);
  EXPECT_EQ(lock.readers(), 0);
  EXPECT_FALSE(lock.write_locked());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RwLockProperty,
                         ::testing::Values(2u, 22u, 222u, 2222u));

class DeterminismProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminismProperty, IdenticalSeedsGiveIdenticalSchedules) {
  auto run = [this] {
    Simulation sim;
    Rng rng(GetParam());
    std::vector<std::pair<double, int>> log;
    SimMutex mu(sim);
    for (int i = 0; i < 50; ++i) {
      const auto arrive = Millis(static_cast<double>(rng.UniformInt(0, 200)));
      const auto hold = Millis(static_cast<double>(rng.UniformInt(1, 30)));
      Spawn([&sim, &mu, &log, arrive, hold, i]() -> Task<> {
        co_await sim.Delay(arrive);
        auto guard = co_await mu.Acquire();
        log.push_back({sim.Now().ToSeconds(), i});
        co_await sim.Delay(hold);
      });
    }
    sim.Run();
    return log;
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismProperty,
                         ::testing::Values(9u, 99u, 999u));

}  // namespace
}  // namespace swapserve::sim
