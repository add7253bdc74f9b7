#include "baseline/ollama_lru.h"

#include <gtest/gtest.h>

#include "baseline_env.h"

namespace swapserve::baseline {
namespace {

using testing::BaselineBed;

// NOTE: spec vectors are built *outside* the coroutine bodies — GCC 12
// miscompiles braced initializer lists inside coroutine lambdas.
std::vector<model::ModelSpec> Specs(BaselineBed& bed,
                                    std::vector<const char*> ids) {
  std::vector<model::ModelSpec> out;
  for (const char* id : ids) out.push_back(bed.catalog.Find(id).value());
  return out;
}

TEST(OllamaLruTest, InitializeStartsRunnersUnloaded) {
  BaselineBed bed;
  OllamaLruServing serving(bed.sim, *bed.gpus[0], bed.storage, bed.runtime);
  const auto specs =
      Specs(bed, {"llama-3.2-1b-fp16", "deepseek-r1-7b-fp16"});
  bed.Run([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serving.Initialize(specs)).ok());
  });
  EXPECT_FALSE(serving.IsLoaded("llama-3.2-1b-fp16"));
  EXPECT_FALSE(serving.IsLoaded("deepseek-r1-7b-fp16"));
  EXPECT_EQ(bed.gpus[0]->used().count(), 0);
}

TEST(OllamaLruTest, MeasureLoadIsPureOnDemandLoad) {
  BaselineBed bed;
  OllamaLruServing serving(bed.sim, *bed.gpus[0], bed.storage, bed.runtime);
  const auto specs = Specs(bed, {"llama-3.1-8b-fp16"});
  double load_s = 0;
  bed.Run([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serving.Initialize(specs)).ok());
    Result<sim::SimDuration> t =
        co_await serving.MeasureLoad("llama-3.1-8b-fp16");
    EXPECT_TRUE(t.ok());
    load_s = t->ToSeconds();
  });
  // Fixed init (1.4 s) + pipelined read/H2D of 16 GB: a few seconds, and
  // far below a cold start (no container boot).
  EXPECT_GT(load_s, 2.0);
  EXPECT_LT(load_s, 8.0);
  EXPECT_TRUE(serving.IsLoaded("llama-3.1-8b-fp16"));
}

TEST(OllamaLruTest, ChatLoadsOnDemandThenStaysLoaded) {
  BaselineBed bed;
  OllamaLruServing serving(bed.sim, *bed.gpus[0], bed.storage, bed.runtime);
  const auto specs = Specs(bed, {"llama-3.2-1b-fp16"});
  core::ChatResult first;
  core::ChatResult second;
  bed.Run([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serving.Initialize(specs)).ok());
    first = co_await serving.Chat("llama-3.2-1b-fp16", 32, 8);
    second = co_await serving.Chat("llama-3.2-1b-fp16", 32, 8);
  });
  ASSERT_TRUE(first.ok && second.ok);
  EXPECT_GT(first.swap_wait_s, 0.5);
  EXPECT_EQ(second.swap_wait_s, 0.0);
}

TEST(OllamaLruTest, LruEvictionWhenMemoryShort) {
  BaselineBed bed;
  // Shrink the GPU so two 14B-class models cannot coexist.
  hw::GpuSpec small = hw::GpuSpec::H100Hbm3_80GB();
  small.memory = GiB(40);
  hw::GpuDevice gpu(bed.sim, 7, small);
  OllamaLruServing serving(bed.sim, gpu, bed.storage, bed.runtime);
  const auto specs =
      Specs(bed, {"deepseek-r1-14b-fp16", "deepseek-r1-7b-fp16",
                  "llama-3.2-1b-fp16"});
  bed.Run([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serving.Initialize(specs)).ok());
    // Load 14B (29.6 GB) then 7B (16.3 GB): 14B must be evicted.
    EXPECT_TRUE((co_await serving.EnsureLoaded("deepseek-r1-14b-fp16")).ok());
    co_await bed.sim.Delay(sim::Seconds(1));
    EXPECT_TRUE((co_await serving.EnsureLoaded("deepseek-r1-7b-fp16")).ok());
    EXPECT_FALSE(serving.IsLoaded("deepseek-r1-14b-fp16"));
    EXPECT_TRUE(serving.IsLoaded("deepseek-r1-7b-fp16"));
    // 1B fits alongside 7B: no eviction.
    EXPECT_TRUE((co_await serving.EnsureLoaded("llama-3.2-1b-fp16")).ok());
    EXPECT_TRUE(serving.IsLoaded("deepseek-r1-7b-fp16"));
  });
  EXPECT_EQ(serving.evictions(), 1u);
}

TEST(OllamaLruTest, EvictionPicksLeastRecentlyUsed) {
  BaselineBed bed;
  hw::GpuSpec small = hw::GpuSpec::H100Hbm3_80GB();
  small.memory = GiB(24);
  hw::GpuDevice gpu(bed.sim, 8, small);
  OllamaLruServing serving(bed.sim, gpu, bed.storage, bed.runtime);
  const auto specs =
      Specs(bed, {"llama-3.2-1b-fp16", "llama-3.2-3b-fp16",
                  "deepseek-r1-7b-fp16"});
  bed.Run([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serving.Initialize(specs)).ok());
    // Use 1B (older), then 3B (newer); loading 7B (16.3 GB) must evict
    // the 1B first (LRU), then the 3B if still short.
    (void)co_await serving.Chat("llama-3.2-1b-fp16", 16, 4);
    co_await bed.sim.Delay(sim::Seconds(10));
    (void)co_await serving.Chat("llama-3.2-3b-fp16", 16, 4);
    co_await bed.sim.Delay(sim::Seconds(10));
    EXPECT_TRUE((co_await serving.EnsureLoaded("deepseek-r1-7b-fp16")).ok());
    EXPECT_FALSE(serving.IsLoaded("llama-3.2-1b-fp16"));
  });
  EXPECT_GE(serving.evictions(), 1u);
}

TEST(OllamaLruTest, CannotFitErrorsWhenNothingEvictable) {
  BaselineBed bed;
  hw::GpuSpec small = hw::GpuSpec::H100Hbm3_80GB();
  small.memory = GiB(4);  // fits the 1B model alone
  hw::GpuDevice gpu(bed.sim, 9, small);
  OllamaLruServing serving(bed.sim, gpu, bed.storage, bed.runtime);
  const auto specs = Specs(bed, {"llama-3.2-1b-fp16"});
  bed.Run([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serving.Initialize(specs)).ok());
    // A foreign tenant takes part of the GPU; the runner cannot evict it.
    SWAP_CHECK(gpu.Allocate(Name("foreign"), GiB(2), "x").ok());
    Status s = co_await serving.EnsureLoaded("llama-3.2-1b-fp16");
    EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  });
}

TEST(OllamaLruTest, UnknownModelErrors) {
  BaselineBed bed;
  OllamaLruServing serving(bed.sim, *bed.gpus[0], bed.storage, bed.runtime);
  bed.Run([&]() -> sim::Task<> {
    Status s = co_await serving.EnsureLoaded("ghost");
    EXPECT_EQ(s.code(), StatusCode::kNotFound);
  });
}

}  // namespace
}  // namespace swapserve::baseline
