#include "engine/engine.h"

#include <gtest/gtest.h>

#include "engine_env.h"
#include "model/calibration.h"

namespace swapserve::engine {
namespace {

using testing::EngineBed;

const model::EngineProfile& Vllm() {
  return model::ProfileFor(model::EngineKind::kVllm);
}

TEST(VllmEngineTest, ColdStartMatchesTable1PlusContainer) {
  EngineBed bed;
  InferenceEngine eng(Vllm(), bed.env(),
                      bed.catalog.Find("llama-3.1-8b-fp16").value(),
                      EngineOptions{}, "vllm-8b");
  bed.Run([&]() -> sim::Task<> {
    Result<InitBreakdown> init = co_await eng.ColdStart();
    EXPECT_TRUE(init.ok()) << init.status();
    // Engine-only portion matches the paper's 55.41 s within tolerance.
    const double engine_s =
        (init->Total() - init->container_start).ToSeconds();
    EXPECT_NEAR(engine_s, 55.41, 1.0);
    EXPECT_GT(init->container_start.ToSeconds(), 25.0);  // torch imports
  });
  EXPECT_EQ(eng.state(), BackendState::kRunning);
}

TEST(VllmEngineTest, ClaimsGpuMemoryUtilizationFraction) {
  EngineBed bed;
  InferenceEngine eng(Vllm(), bed.env(),
                      bed.catalog.Find("llama-3.2-1b-fp16").value(),
                      EngineOptions{.gpu_memory_utilization = 0.9,
                                    .sleep_mode = true},
                      "vllm-1b");
  bed.Run([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await eng.ColdStart()).ok());
  });
  // 0.9 * 80 GiB = 72 GiB regardless of the 2.5 GB model.
  EXPECT_NEAR(bed.gpu.used().AsGiB(), 72.0, 0.1);
  EXPECT_NEAR(eng.GpuResidentBytes().AsGiB(), 72.0, 0.1);
}

TEST(VllmEngineTest, SleepModeSplitsCleanAndDirty) {
  EngineBed bed;
  InferenceEngine eng(Vllm(), bed.env(),
                      bed.catalog.Find("llama-3.1-8b-fp16").value(),
                      EngineOptions{}, "vllm-sleep");
  bed.Run([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await eng.ColdStart()).ok());
    // Awake: everything dirty.
    EXPECT_EQ(eng.CleanBytes(), Bytes(0));
    const Bytes resident = eng.GpuResidentBytes();
    EXPECT_TRUE((co_await eng.PrepareForCheckpoint()).ok());
    EXPECT_TRUE(eng.sleeping());
    // Asleep: only weights dirty; resident unchanged.
    EXPECT_EQ(eng.DirtyBytes(), eng.model().WeightBytes());
    EXPECT_EQ(eng.GpuResidentBytes(), resident);
    EXPECT_GT(eng.CleanBytes(), Bytes(0));
    EXPECT_TRUE((co_await eng.AfterRestore()).ok());
    EXPECT_FALSE(eng.sleeping());
  });
}

TEST(VllmEngineTest, SleepModeDisabledKeepsEverythingDirty) {
  EngineBed bed;
  InferenceEngine eng(Vllm(), bed.env(),
                      bed.catalog.Find("llama-3.1-8b-fp16").value(),
                      EngineOptions{.gpu_memory_utilization = 0.9,
                                    .sleep_mode = false},
                      "vllm-nosleep");
  bed.Run([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await eng.ColdStart()).ok());
    EXPECT_TRUE((co_await eng.PrepareForCheckpoint()).ok());
    EXPECT_FALSE(eng.sleeping());
    EXPECT_NEAR(eng.DirtyBytes().AsGiB(), 72.0, 0.1);
    EXPECT_EQ(eng.CleanBytes(), Bytes(0));
  });
}

TEST(VllmEngineTest, GenerateProducesTimedTokens) {
  EngineBed bed;
  InferenceEngine eng(Vllm(), bed.env(),
                      bed.catalog.Find("llama-3.1-8b-fp16").value(),
                      EngineOptions{}, "vllm-gen");
  bed.Run([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await eng.ColdStart()).ok());
    Result<GenerationResult> r = co_await eng.Generate(
        GenerationRequest{.prompt_tokens = 512, .output_tokens = 128});
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r->output_tokens, 128);
    EXPECT_GT(r->time_to_first_token.ns(), 0);
    EXPECT_GT(r->total_time, r->time_to_first_token);
    // Decode rate: ~16 GB weights / (3350 GB/s * 0.6) ~ 8 ms/token.
    const double decode_s =
        (r->total_time - r->time_to_first_token).ToSeconds();
    EXPECT_NEAR(decode_s / 128.0, 0.008, 0.002);
  });
  EXPECT_EQ(eng.total_requests(), 1u);
  EXPECT_EQ(eng.active_requests(), 0);
}

TEST(VllmEngineTest, GenerateWhileNotRunningFails) {
  EngineBed bed;
  InferenceEngine eng(Vllm(), bed.env(),
                      bed.catalog.Find("llama-3.2-1b-fp16").value(),
                      EngineOptions{}, "vllm-cold");
  bed.Run([&]() -> sim::Task<> {
    Result<GenerationResult> r = co_await eng.Generate(
        GenerationRequest{.prompt_tokens = 8, .output_tokens = 8});
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  });
}

TEST(VllmEngineTest, DoubleColdStartRejected) {
  EngineBed bed;
  InferenceEngine eng(Vllm(), bed.env(),
                      bed.catalog.Find("llama-3.2-1b-fp16").value(),
                      EngineOptions{}, "vllm-double");
  bed.Run([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await eng.ColdStart()).ok());
    Result<InitBreakdown> again = co_await eng.ColdStart();
    EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition);
  });
}

TEST(VllmEngineTest, StateTransitionGuards) {
  EngineBed bed;
  InferenceEngine eng(Vllm(), bed.env(),
                      bed.catalog.Find("llama-3.2-1b-fp16").value(),
                      EngineOptions{}, "vllm-state");
  // Cannot mark swapping before running.
  EXPECT_EQ(eng.MarkSwapping().code(), StatusCode::kFailedPrecondition);
  bed.Run([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await eng.ColdStart()).ok());
    EXPECT_TRUE(eng.MarkSwapping().ok());
    EXPECT_EQ(eng.state(), BackendState::kSwapping);
    EXPECT_TRUE(eng.MarkSwappedOut().ok());
    EXPECT_EQ(eng.MarkSwappedOut().code(),
              StatusCode::kFailedPrecondition);
    EXPECT_TRUE(eng.MarkSwapping().ok());
    EXPECT_TRUE(eng.MarkRunning().ok());
    EXPECT_EQ(eng.state(), BackendState::kRunning);
  });
}

}  // namespace
}  // namespace swapserve::engine
