#include "hw/gpu_device.h"

#include <gtest/gtest.h>

#include "hw/gpu_spec.h"
#include "sim/task.h"

namespace swapserve::hw {
namespace {

class GpuDeviceTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  GpuDevice gpu{sim, 0, GpuSpec::H100Hbm3_80GB()};
};

TEST_F(GpuDeviceTest, SpecPresets) {
  EXPECT_EQ(GpuSpec::A100Sxm4_80GB().memory, GiB(80));
  EXPECT_EQ(GpuSpec::H100Hbm3_80GB().memory, GiB(80));
  EXPECT_GT(GpuSpec::H100Hbm3_80GB().hbm_bandwidth.AsGBps(),
            GpuSpec::A100Sxm4_80GB().hbm_bandwidth.AsGBps());
}

TEST_F(GpuDeviceTest, AllocateAndFree) {
  auto id = gpu.Allocate("vllm-llama", GiB(30), "weights");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(gpu.used(), GiB(30));
  EXPECT_EQ(gpu.free(), GiB(50));
  EXPECT_TRUE(gpu.Free(*id).ok());
  EXPECT_EQ(gpu.used(), Bytes(0));
}

TEST_F(GpuDeviceTest, OvercommitRejected) {
  ASSERT_TRUE(gpu.Allocate("a", GiB(70), "weights").ok());
  auto r = gpu.Allocate("b", GiB(20), "weights");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(gpu.used(), GiB(70));  // failed allocation changed nothing
}

TEST_F(GpuDeviceTest, ExactFitAccepted) {
  EXPECT_TRUE(gpu.Allocate("a", GiB(80), "everything").ok());
  EXPECT_EQ(gpu.free(), Bytes(0));
}

TEST_F(GpuDeviceTest, FreeUnknownAllocationFails) {
  EXPECT_EQ(gpu.Free(12345).code(), StatusCode::kNotFound);
}

TEST_F(GpuDeviceTest, FreeAllOwnedByReleasesOnlyThatOwner) {
  ASSERT_TRUE(gpu.Allocate("a", GiB(10), "weights").ok());
  ASSERT_TRUE(gpu.Allocate("a", GiB(5), "kv").ok());
  ASSERT_TRUE(gpu.Allocate("b", GiB(20), "weights").ok());
  const Bytes freed = gpu.FreeAllOwnedBy("a");
  EXPECT_EQ(freed, GiB(15));
  EXPECT_EQ(gpu.used(), GiB(20));
  EXPECT_EQ(gpu.UsedBy("a"), Bytes(0));
  EXPECT_EQ(gpu.UsedBy("b"), GiB(20));
}

TEST_F(GpuDeviceTest, FreeAllOwnedByUnknownOwnerIsZero) {
  EXPECT_EQ(gpu.FreeAllOwnedBy("ghost"), Bytes(0));
}

TEST_F(GpuDeviceTest, AllocationListing) {
  ASSERT_TRUE(gpu.Allocate("a", GiB(10), "weights").ok());
  ASSERT_TRUE(gpu.Allocate("b", GiB(20), "kv-arena").ok());
  auto allocs = gpu.Allocations();
  ASSERT_EQ(allocs.size(), 2u);
  EXPECT_EQ(allocs[0].owner, "a");
  EXPECT_EQ(allocs[0].purpose, "weights");
  EXPECT_EQ(allocs[1].size, GiB(20));
}

TEST_F(GpuDeviceTest, BusyTimeAccountsOpenIntervals) {
  sim.Schedule(sim::Seconds(0), [this] { gpu.BeginCompute(); });
  sim.Schedule(sim::Seconds(4), [this] { gpu.EndCompute(); });
  sim.Run();
  EXPECT_DOUBLE_EQ(gpu.TotalBusy().ToSeconds(), 4.0);
}

TEST_F(GpuDeviceTest, OverlappingComputeCountsOnce) {
  // Two streams overlap [0,4] and [2,6]: busy time is 6, not 8.
  sim.Schedule(sim::Seconds(0), [this] { gpu.BeginCompute(); });
  sim.Schedule(sim::Seconds(2), [this] { gpu.BeginCompute(); });
  sim.Schedule(sim::Seconds(4), [this] { gpu.EndCompute(); });
  sim.Schedule(sim::Seconds(6), [this] { gpu.EndCompute(); });
  sim.Run();
  EXPECT_DOUBLE_EQ(gpu.TotalBusy().ToSeconds(), 6.0);
}

TEST_F(GpuDeviceTest, TotalBusyIncludesTheOpenInterval) {
  sim.Schedule(sim::Seconds(1), [this] { gpu.BeginCompute(); });
  sim.Schedule(sim::Seconds(3), [this] {
    EXPECT_DOUBLE_EQ(gpu.TotalBusy().ToSeconds(), 2.0);
    gpu.EndCompute();
  });
  sim.Schedule(sim::Seconds(10), [] {});
  sim.Run();
  EXPECT_DOUBLE_EQ(gpu.TotalBusy().ToSeconds(), 2.0);
}

TEST_F(GpuDeviceTest, BusyScopeIsRaii) {
  sim.Go([this]() -> sim::Task<> {
    {
      GpuDevice* const group[] = {&gpu};
      GpuDevice::BusyScope busy(group);
      co_await sim.Delay(sim::Seconds(2));
    }
    co_await sim.Delay(sim::Seconds(3));  // idle
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(gpu.TotalBusy().ToSeconds(), 2.0);
  EXPECT_EQ(gpu.active_compute_streams(), 0);
}

TEST_F(GpuDeviceTest, TotalBusyIncludesOpenInterval) {
  gpu.BeginCompute();
  sim.Schedule(sim::Seconds(5), [] {});
  sim.Run();
  EXPECT_DOUBLE_EQ(gpu.TotalBusy().ToSeconds(), 5.0);
  gpu.EndCompute();
}

}  // namespace
}  // namespace swapserve::hw
