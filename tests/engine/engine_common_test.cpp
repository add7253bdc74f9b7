// Cross-engine behaviour: factory, cold-start ordering (Fig. 2's shape),
// memory policies, and concurrent generation batching.

#include <gtest/gtest.h>

#include "engine/factory.h"
#include "engine_env.h"
#include "sim/combinators.h"

namespace swapserve::engine {
namespace {

using testing::EngineBed;

TEST(EngineFactoryTest, ParseKind) {
  EXPECT_EQ(*ParseEngineKind("vllm"), EngineKind::kVllm);
  EXPECT_EQ(*ParseEngineKind("ollama"), EngineKind::kOllama);
  EXPECT_EQ(*ParseEngineKind("sglang"), EngineKind::kSglang);
  EXPECT_EQ(*ParseEngineKind("trtllm"), EngineKind::kTrtllm);
  EXPECT_EQ(*ParseEngineKind("tensorrt-llm"), EngineKind::kTrtllm);
  EXPECT_FALSE(ParseEngineKind("llamafile").ok());
}

TEST(EngineFactoryTest, CreatesEveryKind) {
  EngineBed bed;
  model::ModelSpec spec = bed.catalog.Find("llama-3.2-1b-fp16").value();
  for (EngineKind kind : {EngineKind::kVllm, EngineKind::kOllama,
                          EngineKind::kSglang, EngineKind::kTrtllm}) {
    auto eng = CreateEngine(kind, bed.env(), spec, EngineOptions{},
                            std::string("f-") +
                                std::string(EngineKindName(kind)));
    ASSERT_NE(eng, nullptr);
    EXPECT_EQ(eng->kind(), kind);
    EXPECT_EQ(eng->state(), BackendState::kUninitialized);
  }
}

TEST(EngineKindTest, NamesAndImages) {
  EXPECT_EQ(EngineKindName(EngineKind::kVllm), "vllm");
  EXPECT_EQ(EngineImageName(EngineKind::kVllm), "vllm/vllm-openai:v0.9.2");
  EXPECT_EQ(EngineImageName(EngineKind::kTrtllm),
            "nvcr.io/nvidia/tensorrt-llm:v1.0rc0");
  EXPECT_EQ(BackendStateName(BackendState::kSwappedOut), "swapped-out");
}

double ColdStartSeconds(EngineKind kind, const std::string& model_id) {
  EngineBed bed;
  auto eng = CreateEngine(kind, bed.env(),
                          bed.catalog.Find(model_id).value(),
                          EngineOptions{}, "order-test");
  double total = 0;
  bed.Run([&]() -> sim::Task<> {
    Result<InitBreakdown> init = co_await eng->ColdStart();
    EXPECT_TRUE(init.ok()) << init.status();
    total = init->Total().ToSeconds();
  });
  return total;
}

TEST(EngineOrderingTest, ColdStartOrderMatchesFig2) {
  // Ollama << SGLang << vLLM < TRT-LLM for the paper's anchor model.
  const double ollama = ColdStartSeconds(EngineKind::kOllama,
                                         "llama-3.1-8b-fp16");
  const double sglang = ColdStartSeconds(EngineKind::kSglang,
                                         "llama-3.1-8b-fp16");
  const double vllm = ColdStartSeconds(EngineKind::kVllm,
                                       "llama-3.1-8b-fp16");
  const double trtllm = ColdStartSeconds(EngineKind::kTrtllm,
                                         "llama-3.1-8b-fp16");
  EXPECT_LT(ollama, sglang);
  EXPECT_LT(sglang, vllm);
  EXPECT_LT(vllm, trtllm);
  // Order-of-magnitude anchors.
  EXPECT_LT(ollama, 10.0);
  EXPECT_GT(trtllm, 100.0);
}

TEST(EngineOrderingTest, ColdStartGrowsWithModelSize) {
  for (EngineKind kind : {EngineKind::kVllm, EngineKind::kOllama,
                          EngineKind::kSglang, EngineKind::kTrtllm}) {
    const double small = ColdStartSeconds(kind, "llama-3.2-1b-fp16");
    const double large = ColdStartSeconds(kind, "deepseek-r1-14b-fp16");
    EXPECT_LT(small, large) << EngineKindName(kind);
  }
}

TEST(EngineMemoryTest, PreallocatingEnginesClaimMostOfHbm) {
  for (EngineKind kind :
       {EngineKind::kVllm, EngineKind::kSglang, EngineKind::kTrtllm}) {
    EngineBed bed;
    auto eng = CreateEngine(kind, bed.env(),
                            bed.catalog.Find("llama-3.2-1b-fp16").value(),
                            EngineOptions{}, "mem-test");
    bed.Run([&]() -> sim::Task<> {
      EXPECT_TRUE((co_await eng->ColdStart()).ok());
    });
    EXPECT_GT(bed.gpu.used().AsGiB(), 65.0) << EngineKindName(kind);
  }
}

TEST(EngineMemoryTest, OllamaClaimsOnlyModelFootprint) {
  EngineBed bed;
  auto eng = CreateEngine(EngineKind::kOllama, bed.env(),
                          bed.catalog.Find("llama-3.2-1b-fp16").value(),
                          EngineOptions{}, "mem-ollama");
  bed.Run([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await eng->ColdStart()).ok());
  });
  EXPECT_LT(bed.gpu.used().AsGiB(), 5.0);
}

TEST(EngineBatchingTest, ConcurrentGenerationsShareTheDevice) {
  EngineBed bed;
  auto eng = CreateEngine(EngineKind::kVllm, bed.env(),
                          bed.catalog.Find("llama-3.1-8b-fp16").value(),
                          EngineOptions{}, "batch-test");
  std::vector<double> totals;
  bed.Run([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await eng->ColdStart()).ok());
    std::vector<sim::Task<>> batch;
    for (int i = 0; i < 4; ++i) {
      batch.push_back([](InferenceEngine& e, std::vector<double>* out,
                         sim::Simulation& sim) -> sim::Task<> {
        const sim::SimTime t0 = sim.Now();
        Result<GenerationResult> r = co_await e.Generate(
            GenerationRequest{.prompt_tokens = 64, .output_tokens = 100});
        EXPECT_TRUE(r.ok());
        out->push_back((sim.Now() - t0).ToSeconds());
      }(*eng, &totals, bed.sim));
    }
    co_await sim::WhenAll(bed.sim, batch);
  });
  ASSERT_EQ(totals.size(), 4u);
  // Continuous batching: per-request latency ~flat across the batch
  // (aggregate throughput scales instead of queueing delay).
  for (double t : totals) EXPECT_NEAR(t, totals[0], totals[0] * 0.05);
}

TEST(EngineBatchingTest, BusyTimeRecordedOnGpu) {
  EngineBed bed;
  auto eng = CreateEngine(EngineKind::kOllama, bed.env(),
                          bed.catalog.Find("llama-3.2-1b-fp16").value(),
                          EngineOptions{}, "busy-test");
  bed.Run([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await eng->ColdStart()).ok());
    const sim::SimDuration busy0 = bed.gpu.TotalBusy();
    Result<GenerationResult> r = co_await eng->Generate(
        GenerationRequest{.prompt_tokens = 256, .output_tokens = 64});
    EXPECT_TRUE(r.ok());
    const double busy_s = (bed.gpu.TotalBusy() - busy0).ToSeconds();
    EXPECT_NEAR(busy_s, r->total_time.ToSeconds(), 1e-9);
  });
}

}  // namespace
}  // namespace swapserve::engine
