#include "ckpt/checkpoint_engine.h"

#include <gtest/gtest.h>

#include "ckpt/snapshot_tier.h"
#include "container/container.h"
#include "hw/gpu_spec.h"
#include "hw/link.h"
#include "sim/task.h"

namespace swapserve::ckpt {
namespace {

class CheckpointEngineTest : public ::testing::Test {
 protected:
  CheckpointEngineTest()
      : gpu(sim, 0, hw::GpuSpec::H100Hbm3_80GB()),
        nvme(sim, "nvme", GBps(6), sim::Seconds(0.01)),
        store(GiB(128)),
        tier(sim, store, nvme, {}),
        engine(sim, store, tier),
        proc(sim, "backend-a"),
        c(sim, "backend-a", sim::Seconds(0.7), sim::Seconds(0.9)) {
    gpu_vec.push_back(&gpu);
  }

  SwapOutRequest MakeRequest(Bytes clean, Bytes dirty) {
    return SwapOutRequest{
        .container = &c,
        .process = &proc,
        .gpu = &gpu,
        .gpus = {},
        .owner = Name("backend-a"),
        .clean_bytes = clean,
        .dirty_bytes = dirty,
        .checkpoint = model::DefaultCheckpointH100(),
        .restore = model::VllmRestoreH100(),
    };
  }

  template <typename F>
  void Run(F body) {
    sim::Spawn(std::move(body));
    sim.Run();
  }

  sim::Simulation sim;
  hw::GpuDevice gpu;
  // Built outside the coroutines: GCC 12 miscompiles braced initializer
  // lists inside coroutine lambdas.
  std::vector<hw::GpuDevice*> gpu_vec;
  hw::StorageDevice nvme;
  SnapshotStore store;
  SnapshotTierManager tier;
  CheckpointEngine engine;
  CudaCheckpointProcess proc;
  container::Container c;
};

TEST_F(CheckpointEngineTest, SwapOutFreesGpuAndStoresSnapshot) {
  Run([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await c.Start()).ok());
    SWAP_CHECK(gpu.Allocate(Name("backend-a"), GB(70), "state").ok());

    auto result = co_await engine.SwapOut(MakeRequest(GB(60), GB(10)));
    EXPECT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->gpu_freed, GB(70));
    EXPECT_EQ(gpu.used(), Bytes(0));
    EXPECT_EQ(store.used(), GB(10));  // dirty only
    EXPECT_EQ(c.state(), container::ContainerState::kPaused);
    EXPECT_EQ(proc.state(), CudaCheckpointState::kCheckpointed);
    EXPECT_EQ(engine.swap_out_count(), 1u);
  });
}

TEST_F(CheckpointEngineTest, SwapInRestoresEverything) {
  Run([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await c.Start()).ok());
    SWAP_CHECK(gpu.Allocate(Name("backend-a"), GB(70), "state").ok());
    auto out = co_await engine.SwapOut(MakeRequest(GB(60), GB(10)));
    EXPECT_TRUE(out.ok());

    auto in = co_await engine.SwapIn(out->snapshot, c, proc, gpu_vec);
    EXPECT_TRUE(in.ok()) << in.status();
    EXPECT_EQ(gpu.used(), GB(70));
    EXPECT_EQ(gpu.UsedBy(Name("backend-a")), GB(70));
    EXPECT_EQ(c.state(), container::ContainerState::kRunning);
    EXPECT_EQ(proc.state(), CudaCheckpointState::kRunning);
    EXPECT_EQ(store.count(), 0u);  // snapshot consumed
    EXPECT_EQ(engine.swap_in_count(), 1u);
  });
}

TEST_F(CheckpointEngineTest, SwapInTimeMatchesRestoreModel) {
  Run([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await c.Start()).ok());
    SWAP_CHECK(gpu.Allocate(Name("backend-a"), GB(72), "state").ok());
    auto out = co_await engine.SwapOut(MakeRequest(GB(70), GB(2)));
    EXPECT_TRUE(out.ok());

    auto in = co_await engine.SwapIn(out->snapshot, c, proc, gpu_vec);
    EXPECT_TRUE(in.ok());
    // VllmRestoreH100 (2.45 + 70/25 + 2/8.9 s), plus unlock/thaw overheads.
    const double expected =
        model::VllmRestoreH100().RestoreTime(GB(70), GB(2)).ToSeconds();
    EXPECT_NEAR(in->elapsed.ToSeconds(), expected, 0.1);
  });
}

TEST_F(CheckpointEngineTest, SwapOutTimeScalesWithDirtyBytes) {
  Run([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await c.Start()).ok());
    SWAP_CHECK(gpu.Allocate(Name("backend-a"), GB(24), "state").ok());
    auto out = co_await engine.SwapOut(MakeRequest(Bytes(0), GB(24)));
    EXPECT_TRUE(out.ok());
    // DefaultCheckpointH100: 0.35 + 24/12 = 2.35 plus freeze/lock margins.
    EXPECT_NEAR(out->elapsed.ToSeconds(), 2.35, 0.2);
  });
}

TEST_F(CheckpointEngineTest, SwapOutRollsBackWhenStoreFull) {
  SnapshotStore tiny(GB(1));
  SnapshotTierManager tiny_tier(sim, tiny, nvme, {});
  CheckpointEngine small_engine(sim, tiny, tiny_tier);
  Run([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await c.Start()).ok());
    SWAP_CHECK(gpu.Allocate(Name("backend-a"), GB(30), "state").ok());
    auto out = co_await small_engine.SwapOut(MakeRequest(Bytes(0), GB(30)));
    EXPECT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
    // Rolled back: still running, memory untouched.
    EXPECT_EQ(c.state(), container::ContainerState::kRunning);
    EXPECT_EQ(proc.state(), CudaCheckpointState::kRunning);
    EXPECT_EQ(gpu.used(), GB(30));
  });
}

TEST_F(CheckpointEngineTest, SwapInFailsWithoutGpuRoom) {
  Run([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await c.Start()).ok());
    SWAP_CHECK(gpu.Allocate(Name("backend-a"), GB(40), "state").ok());
    auto out = co_await engine.SwapOut(MakeRequest(Bytes(0), GB(40)));
    EXPECT_TRUE(out.ok());
    // Another tenant fills the GPU.
    SWAP_CHECK(gpu.Allocate(Name("other"), GiB(70), "state").ok());
    auto in = co_await engine.SwapIn(out->snapshot, c, proc, gpu_vec);
    EXPECT_FALSE(in.ok());
    EXPECT_EQ(in.status().code(), StatusCode::kResourceExhausted);
    // Snapshot retained for a later retry.
    EXPECT_EQ(store.count(), 1u);
  });
}

TEST_F(CheckpointEngineTest, SwapInUnknownSnapshotFails) {
  Run([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await c.Start()).ok());
    auto in = co_await engine.SwapIn(999, c, proc, gpu_vec);
    EXPECT_EQ(in.status().code(), StatusCode::kNotFound);
  });
}

TEST_F(CheckpointEngineTest, SwapOutOfStoppedContainerFails) {
  Run([&]() -> sim::Task<> {
    // Never started: Pause() must fail and nothing must change.
    auto out = co_await engine.SwapOut(MakeRequest(Bytes(0), GB(1)));
    EXPECT_EQ(out.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(store.count(), 0u);
  });
}

}  // namespace
}  // namespace swapserve::ckpt
