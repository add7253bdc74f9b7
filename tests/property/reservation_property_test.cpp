// Task-manager property sweep: random reserve/allocate/release churn on
// 1, 2, and 4 GPUs must never overcommit, never starve, and always drain.

#include <gtest/gtest.h>

#include "core/task_manager.h"
#include "hw/gpu_spec.h"
#include "sim/random.h"
#include "sim/task.h"

namespace swapserve::core {
namespace {

class ReservationProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(ReservationProperty, ChurnNeverOvercommitsAndAlwaysDrains) {
  const auto [seed, gpu_count] = GetParam();
  sim::Simulation sim;
  std::vector<std::unique_ptr<hw::GpuDevice>> gpus;
  std::vector<hw::GpuDevice*> gpu_ptrs;
  for (int i = 0; i < gpu_count; ++i) {
    gpus.push_back(std::make_unique<hw::GpuDevice>(
        sim, i, hw::GpuSpec::H100Hbm3_80GB()));
    gpu_ptrs.push_back(gpus.back().get());
  }
  TaskManager tm(sim, gpu_ptrs);

  sim::Rng rng(seed);
  int granted = 0;
  int failed = 0;
  bool violated = false;
  const int kWorkers = 150;
  for (int i = 0; i < kWorkers; ++i) {
    const int gpu = static_cast<int>(rng.UniformInt(0, gpu_count - 1));
    const auto bytes = GiB(static_cast<double>(rng.UniformInt(1, 60)));
    const auto start = sim::Millis(static_cast<double>(
        rng.UniformInt(0, 5000)));
    const auto hold = sim::Millis(static_cast<double>(
        rng.UniformInt(1, 800)));
    sim::Spawn([&tm, &sim, &granted, &failed, &violated, &gpus, gpu, bytes,
                start, hold]() -> sim::Task<> {
      co_await sim.Delay(start);
      auto r = co_await tm.Reserve(gpu, bytes, Name("worker"));
      if (!r.ok()) {
        ++failed;
        co_return;
      }
      ++granted;
      hw::GpuDevice& dev = *gpus[static_cast<std::size_t>(gpu)];
      // Scoped acquire-release: convert to a real allocation under the
      // reservation, release the reservation only once the memory is
      // freed again — so the task manager always knows memory returns.
      auto alloc = dev.Allocate(Name("worker"), bytes, "state");
      if (!alloc.ok()) violated = true;  // reservation must guarantee this
      if (dev.used() > dev.capacity()) violated = true;
      co_await sim.Delay(hold);
      if (alloc.ok()) SWAP_CHECK(dev.Free(*alloc).ok());
      r->Release();
    });
  }
  sim.Run();

  EXPECT_FALSE(violated);
  // Every request resolved one way or the other.
  EXPECT_EQ(granted + failed, kWorkers);
  // Without a reclaim delegate and with all holds finite, nothing should
  // have been starved into failure.
  EXPECT_EQ(failed, 0);
  for (int g = 0; g < gpu_count; ++g) {
    EXPECT_EQ(gpus[static_cast<std::size_t>(g)]->used().count(), 0);
    EXPECT_EQ(tm.OutstandingReserved(g).count(), 0);
    EXPECT_EQ(tm.PendingRequests(g), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndGpus, ReservationProperty,
    ::testing::Combine(::testing::Values(1u, 17u, 1234u, 0xdeadu),
                       ::testing::Values(1, 2, 4)));

// FIFO property under random traffic: grants on one GPU happen in request
// order.
class FifoProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FifoProperty, GrantsFollowArrivalOrder) {
  sim::Simulation sim;
  hw::GpuDevice gpu(sim, 0, hw::GpuSpec::H100Hbm3_80GB());
  TaskManager tm(sim, {&gpu});
  sim::Rng rng(GetParam());

  std::vector<int> grant_order;
  int next_arrival_id = 0;
  // A long-lived holder forces everything to queue.
  sim::Spawn([&]() -> sim::Task<> {
    auto r = co_await tm.Reserve(0, GiB(80), Name("holder"));
    EXPECT_TRUE(r.ok());
    co_await sim.Delay(sim::Seconds(100));
    // Release; the queue drains strictly FIFO as memory allows.
  });
  for (int i = 0; i < 30; ++i) {
    const auto arrive = sim::Millis(static_cast<double>(i * 10 + 1));
    const auto bytes = GiB(static_cast<double>(rng.UniformInt(1, 20)));
    sim::Spawn([&tm, &sim, &grant_order, &next_arrival_id, arrive, bytes,
                i]() -> sim::Task<> {
      co_await sim.Delay(arrive);
      EXPECT_EQ(next_arrival_id, i);  // arrivals are strictly ordered
      ++next_arrival_id;
      auto r = co_await tm.Reserve(0, bytes, Name("w" + std::to_string(i)));
      EXPECT_TRUE(r.ok());
      grant_order.push_back(i);
      co_await sim.Delay(sim::Seconds(1));
    });
  }
  sim.Run();

  ASSERT_EQ(grant_order.size(), 30u);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(grant_order[static_cast<std::size_t>(i)], i)
        << "grant bypassed FIFO order";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FifoProperty,
                         ::testing::Values(3u, 33u, 333u));

}  // namespace
}  // namespace swapserve::core
