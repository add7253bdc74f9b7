#include "baseline/dedicated.h"

#include <gtest/gtest.h>

#include "baseline_env.h"

namespace swapserve::baseline {
namespace {

using testing::BaselineBed;

TEST(DedicatedTest, InitializesOneEnginePerGpu) {
  BaselineBed bed(2);
  std::vector<DedicatedServing::Assignment> assignments = {
      {bed.catalog.Find("llama-3.2-1b-fp16").value(),
       model::EngineKind::kOllama, bed.gpus[0].get()},
      {bed.catalog.Find("deepseek-r1-7b-fp16").value(),
       model::EngineKind::kOllama, bed.gpus[1].get()},
  };
  DedicatedServing serving(bed.sim, std::move(assignments), bed.storage);
  bed.Run([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serving.Initialize()).ok());
  });
  EXPECT_GT(bed.gpus[0]->used().count(), 0);
  EXPECT_GT(bed.gpus[1]->used().count(), 0);
  EXPECT_NE(serving.engine("llama-3.2-1b-fp16"), nullptr);
  EXPECT_EQ(serving.engine("ghost"), nullptr);
}

TEST(DedicatedTest, ChatServedImmediatelyNoSwapWait) {
  BaselineBed bed;
  std::vector<DedicatedServing::Assignment> assignments = {
      {bed.catalog.Find("llama-3.2-1b-fp16").value(),
       model::EngineKind::kOllama, bed.gpus[0].get()},
  };
  DedicatedServing serving(bed.sim, std::move(assignments), bed.storage);
  core::ChatResult r;
  bed.Run([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serving.Initialize()).ok());
    r = co_await serving.Chat("llama-3.2-1b-fp16", 64, 32);
  });
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.output_tokens, 32);
  EXPECT_EQ(r.swap_wait_s, 0.0);
  EXPECT_LT(r.ttft_s, 0.5);  // resident, prefill only
  EXPECT_EQ(serving.metrics().TotalCompleted(), 1u);
}

TEST(DedicatedTest, UnknownModelErrors) {
  BaselineBed bed;
  DedicatedServing serving(bed.sim, {}, bed.storage);
  core::ChatResult r;
  bed.Run([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serving.Initialize()).ok());
    r = co_await serving.Chat("nope", 8, 8);
  });
  EXPECT_FALSE(r.ok);
}

}  // namespace
}  // namespace swapserve::baseline
