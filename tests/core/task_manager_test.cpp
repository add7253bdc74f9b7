// Task manager invariants: no overcommit, FIFO grants, reclaim delegation,
// and failure when a request can never be satisfied.

#include "core/task_manager.h"

#include <gtest/gtest.h>

#include "hw/gpu_spec.h"
#include "sim/random.h"
#include "sim/task.h"

namespace swapserve::core {
namespace {

class TaskManagerTest : public ::testing::Test {
 protected:
  TaskManagerTest() : gpu(sim, 0, hw::GpuSpec::H100Hbm3_80GB()) {}

  sim::Simulation sim;
  hw::GpuDevice gpu;

  template <typename F>
  void Run(F body) {
    sim::Spawn(std::move(body));
    sim.Run();
  }
};

TEST_F(TaskManagerTest, ImmediateGrantWhenMemoryFree) {
  TaskManager tm(sim, {&gpu});
  Run([&]() -> sim::Task<> {
    auto r = co_await tm.Reserve(0, GiB(40), "a");
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(tm.OutstandingReserved(0), GiB(40));
    EXPECT_EQ(tm.Reservable(0), GiB(40));
    r->Release();
    EXPECT_EQ(tm.OutstandingReserved(0), Bytes(0));
  });
}

TEST_F(TaskManagerTest, ReservationAccountsDeviceAllocations) {
  TaskManager tm(sim, {&gpu});
  SWAP_CHECK(gpu.Allocate("tenant", GiB(50), "weights").ok());
  EXPECT_EQ(tm.Reservable(0), GiB(30));
  Run([&]() -> sim::Task<> {
    auto r = co_await tm.Reserve(0, GiB(30), "a");
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(tm.Reservable(0), Bytes(0));
  });
}

TEST_F(TaskManagerTest, OverCapacityRequestFailsFast) {
  TaskManager tm(sim, {&gpu});
  Run([&]() -> sim::Task<> {
    auto r = co_await tm.Reserve(0, GiB(81), "too-big");
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  });
}

TEST_F(TaskManagerTest, WaitsForReleaseThenGrants) {
  TaskManager tm(sim, {&gpu});
  std::vector<double> grant_times;
  Run([&]() -> sim::Task<> {
    auto first = co_await tm.Reserve(0, GiB(60), "a");
    EXPECT_TRUE(first.ok());
    grant_times.push_back(sim.Now().ToSeconds());

    // Second cannot fit until the first releases.
    sim::Spawn([&tm, &grant_times, this]() -> sim::Task<> {
      auto second = co_await tm.Reserve(0, GiB(60), "b");
      EXPECT_TRUE(second.ok());
      grant_times.push_back(sim.Now().ToSeconds());
    });
    co_await sim.Delay(sim::Seconds(10));
    first->Release();
  });
  ASSERT_EQ(grant_times.size(), 2u);
  EXPECT_DOUBLE_EQ(grant_times[0], 0.0);
  EXPECT_DOUBLE_EQ(grant_times[1], 10.0);
}

TEST_F(TaskManagerTest, FifoNoBypass) {
  TaskManager tm(sim, {&gpu});
  std::vector<std::string> order;
  Run([&]() -> sim::Task<> {
    auto big = co_await tm.Reserve(0, GiB(70), "holder");
    EXPECT_TRUE(big.ok());
    // "waiter-large" queues first and needs 40; "waiter-small" needs only
    // 5 (which *would* fit right now) but must not jump the queue.
    sim::Spawn([&]() -> sim::Task<> {
      auto r = co_await tm.Reserve(0, GiB(40), "waiter-large");
      EXPECT_TRUE(r.ok());
      order.push_back("large");
    });
    sim::Spawn([&]() -> sim::Task<> {
      co_await sim.Delay(sim::Millis(1));
      auto r = co_await tm.Reserve(0, GiB(5), "waiter-small");
      EXPECT_TRUE(r.ok());
      order.push_back("small");
    });
    co_await sim.Delay(sim::Seconds(5));
    big->Release();
  });
  EXPECT_EQ(order, (std::vector<std::string>{"large", "small"}));
}

TEST_F(TaskManagerTest, FailsWhenNothingReclaimableAndNothingOutstanding) {
  TaskManager tm(sim, {&gpu});
  // A foreign allocation occupies the device; no delegate, no outstanding
  // reservations -> the request must fail, not deadlock.
  SWAP_CHECK(gpu.Allocate("foreign", GiB(70), "x").ok());
  Run([&]() -> sim::Task<> {
    auto r = co_await tm.Reserve(0, GiB(20), "a");
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  });
}

class FreeingDelegate final : public TaskManager::ReclaimDelegate {
 public:
  FreeingDelegate(sim::Simulation& sim, hw::GpuDevice& gpu)
      : sim_(sim), gpu_(gpu) {}
  sim::Task<Bytes> ReclaimMemory(hw::GpuId, Bytes needed,
                                 std::string) override {
    ++calls;
    last_needed = needed;
    co_await sim_.Delay(sim::Seconds(2));  // simulated swap-out
    co_return gpu_.FreeAllOwnedBy("foreign");
  }
  int calls = 0;
  Bytes last_needed{0};

 private:
  sim::Simulation& sim_;
  hw::GpuDevice& gpu_;
};

TEST_F(TaskManagerTest, ReclaimDelegateInvokedWithDeficit) {
  TaskManager tm(sim, {&gpu});
  FreeingDelegate delegate(sim, gpu);
  tm.set_delegate(&delegate);
  SWAP_CHECK(gpu.Allocate("foreign", GiB(70), "x").ok());
  double granted_at = -1;
  Run([&]() -> sim::Task<> {
    auto r = co_await tm.Reserve(0, GiB(30), "a");
    EXPECT_TRUE(r.ok()) << r.status();
    granted_at = sim.Now().ToSeconds();
  });
  EXPECT_EQ(delegate.calls, 1);
  EXPECT_EQ(delegate.last_needed, GiB(20));  // 30 needed, 10 free
  EXPECT_DOUBLE_EQ(granted_at, 2.0);         // after the swap-out delay
}

TEST_F(TaskManagerTest, PerGpuQueuesIndependent) {
  hw::GpuDevice gpu1(sim, 1, hw::GpuSpec::H100Hbm3_80GB());
  TaskManager tm(sim, {&gpu, &gpu1});
  Run([&]() -> sim::Task<> {
    auto a = co_await tm.Reserve(0, GiB(80), "a");
    EXPECT_TRUE(a.ok());
    // gpu1 is unaffected by gpu0's full queue.
    auto b = co_await tm.Reserve(1, GiB(80), "b");
    EXPECT_TRUE(b.ok());
    EXPECT_EQ(tm.OutstandingReserved(0), GiB(80));
    EXPECT_EQ(tm.OutstandingReserved(1), GiB(80));
  });
}

TEST_F(TaskManagerTest, ReservationMoveSemantics) {
  TaskManager tm(sim, {&gpu});
  Run([&]() -> sim::Task<> {
    auto r = co_await tm.Reserve(0, GiB(10), "a");
    EXPECT_TRUE(r.ok());
    TaskManager::Reservation moved = std::move(*r);
    EXPECT_TRUE(moved.active());
    EXPECT_EQ(tm.OutstandingReserved(0), GiB(10));
    {
      TaskManager::Reservation inner = std::move(moved);
      EXPECT_FALSE(moved.active());
    }  // inner destruction releases
    EXPECT_EQ(tm.OutstandingReserved(0), Bytes(0));
  });
}

TEST_F(TaskManagerTest, NeverOvercommitsUnderChurn) {
  TaskManager tm(sim, {&gpu});
  sim::Rng rng(99);
  bool violated = false;
  for (int i = 0; i < 200; ++i) {
    const auto bytes = GiB(static_cast<double>(rng.UniformInt(1, 40)));
    const auto hold = sim::Millis(static_cast<double>(rng.UniformInt(1, 500)));
    const auto start =
        sim::Millis(static_cast<double>(rng.UniformInt(0, 2000)));
    sim::Spawn([&tm, &gpu = gpu, &violated, bytes, hold, start,
                this]() -> sim::Task<> {
      co_await sim.Delay(start);
      auto r = co_await tm.Reserve(0, bytes, "churn");
      if (!r.ok()) co_return;
      // Convert to a real allocation for the hold period, like a swap-in.
      auto alloc = gpu.Allocate("churn", bytes, "state");
      if (!alloc.ok()) {
        violated = true;  // reservation must guarantee allocation success
        co_return;
      }
      r->Release();
      if (gpu.used() > gpu.capacity()) violated = true;
      co_await sim.Delay(hold);
      SWAP_CHECK(gpu.Free(*alloc).ok());
    });
  }
  sim.Run();
  EXPECT_FALSE(violated);
  EXPECT_EQ(gpu.used(), Bytes(0));
  EXPECT_EQ(tm.OutstandingReserved(0), Bytes(0));
  EXPECT_EQ(tm.PendingRequests(0), 0u);
}

}  // namespace
}  // namespace swapserve::core
