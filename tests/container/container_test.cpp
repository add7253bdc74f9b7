#include "container/container.h"

#include <gtest/gtest.h>

#include "sim/task.h"

namespace swapserve::container {
namespace {

class ContainerTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  Container c{sim, "backend-a", sim::Seconds(1), sim::Seconds(4)};

  template <typename F>
  void Run(F body) {
    sim::Spawn(std::move(body));
    sim.Run();
  }
};

TEST_F(ContainerTest, StartPaysBothBootPhases) {
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
