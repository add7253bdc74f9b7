#include "container/container.h"

#include <gtest/gtest.h>

#include "sim/task.h"

namespace swapserve::container {
namespace {

ImageSpec TestImage() {
  return ImageSpec{
      .name = "test:latest",
      .size = GiB(2),
      .create_start = sim::Seconds(1),
      .entrypoint_boot = sim::Seconds(4),
  };
}

class ContainerTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  Container c{sim, 1, "backend-a", TestImage(), "10.88.0.1", 40000};

  template <typename F>
  void Run(F body) {
    sim::Spawn(std::move(body));
    sim.Run();
  }
};

TEST_F(ContainerTest, StartPaysImageOverheads) {
  double started_at = -1;
  Run([&]() -> sim::Task<> {
    Status s = co_await c.Start();
    EXPECT_TRUE(s.ok());
    started_at = sim.Now().ToSeconds();
  });
  EXPECT_DOUBLE_EQ(started_at, 5.0);  // 1 + 4
  EXPECT_EQ(c.state(), ContainerState::kRunning);
}

TEST_F(ContainerTest, DoubleStartFails) {
  Run([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await c.Start()).ok());
    Status s = co_await c.Start();
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  });
}

TEST_F(ContainerTest, PauseFreezesAndUnpauseThaws) {
  Run([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await c.Start()).ok());
    EXPECT_TRUE((co_await c.Pause()).ok());
    EXPECT_EQ(c.state(), ContainerState::kPaused);
    EXPECT_TRUE(c.freezer().frozen());
    EXPECT_TRUE((co_await c.Unpause()).ok());
    EXPECT_EQ(c.state(), ContainerState::kRunning);
    EXPECT_FALSE(c.freezer().frozen());
  });
}

TEST_F(ContainerTest, PauseRequiresRunning) {
  Run([&]() -> sim::Task<> {
    Status s = co_await c.Pause();
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  });
}

TEST_F(ContainerTest, UnpauseRequiresPaused) {
  Run([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await c.Start()).ok());
    Status s = co_await c.Unpause();
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  });
}

TEST_F(ContainerTest, RunningTimeExcludesPaused) {
  Run([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await c.Start()).ok());  // running at t=5
    co_await sim.Delay(sim::Seconds(10));
    EXPECT_TRUE((co_await c.Pause()).ok());
    co_await sim.Delay(sim::Seconds(100));   // paused: not counted
    EXPECT_TRUE((co_await c.Unpause()).ok());
    co_await sim.Delay(sim::Seconds(5));
  });
  // 10s before pause + freeze latency margin + 5s after thaw.
  EXPECT_NEAR(c.TotalRunning().ToSeconds(), 15.0, 0.1);
}

TEST_F(ContainerTest, FreezerDoubleFreezeFails) {
  CgroupFreezer freezer(sim);
  Run([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await freezer.Freeze()).ok());
    EXPECT_EQ((co_await freezer.Freeze()).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_TRUE((co_await freezer.Thaw()).ok());
    EXPECT_EQ((co_await freezer.Thaw()).code(),
              StatusCode::kFailedPrecondition);
  });
}

TEST_F(ContainerTest, StateNames) {
  EXPECT_EQ(ContainerStateName(ContainerState::kCreated), "created");
  EXPECT_EQ(ContainerStateName(ContainerState::kPaused), "paused");
  EXPECT_EQ(ContainerStateName(ContainerState::kRunning), "running");
}

}  // namespace
}  // namespace swapserve::container
