// End-to-end tests of the assembled SwapServeLLM stack.

#include "core/swap_serve.h"

#include <gtest/gtest.h>

#include "fixture.h"
#include "sim/combinators.h"

namespace swapserve::core {
namespace {

using testing::TestBed;

TEST(SwapServeTest, InitializeSnapshotsAndParksAllBackends) {
  TestBed bed;
  SwapServe serve(bed.sim, bed.MakeConfig({
                      {"llama-3.2-1b-fp16", "ollama"},
                      {"deepseek-r1-7b-fp16", "ollama"},
                  }),
                  bed.catalog, bed.hardware());
  bed.RunTask([&]() -> sim::Task<> {
    Status s = co_await serve.Initialize();
    EXPECT_TRUE(s.ok()) << s;
    serve.Shutdown();
  });
  EXPECT_TRUE(serve.initialized());
  // After init every backend is swapped out and the GPU is empty.
  for (Backend* b : serve.backends()) {
    EXPECT_EQ(b->engine->state(), engine::BackendState::kSwappedOut)
        << b->name();
    EXPECT_TRUE(b->has_snapshot);
  }
  EXPECT_EQ(bed.gpus[0]->used().count(), 0);
  EXPECT_EQ(serve.snapshot_store().count(), 2u);
}

TEST(SwapServeTest, FirstRequestTriggersSwapInAndServes) {
  TestBed bed;
  SwapServe serve(bed.sim,
                  bed.MakeConfig({{"llama-3.2-1b-fp16", "ollama"}}),
                  bed.catalog, bed.hardware());
  ChatResult result;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    result = co_await serve.ChatAndWait("llama-3.2-1b-fp16",
                                        /*prompt_tokens=*/128,
                                        /*max_tokens=*/64);
    serve.Shutdown();
  });
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.output_tokens, 64);
  EXPECT_GT(result.swap_wait_s, 0.0);  // had to swap in
  EXPECT_GE(result.ttft_s, result.swap_wait_s);
  EXPECT_EQ(serve.metrics().swap_ins, 1u);
  // Backend stays resident afterwards.
  EXPECT_EQ(serve.backend("llama-3.2-1b-fp16")->engine->state(),
            engine::BackendState::kRunning);
}

TEST(SwapServeTest, SecondRequestServedResidentWithoutSwap) {
  TestBed bed;
  SwapServe serve(bed.sim,
                  bed.MakeConfig({{"llama-3.2-1b-fp16", "ollama"}}),
                  bed.catalog, bed.hardware());
  ChatResult first;
  ChatResult second;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    first = co_await serve.ChatAndWait("llama-3.2-1b-fp16", 128, 64);
    second = co_await serve.ChatAndWait("llama-3.2-1b-fp16", 128, 64);
    serve.Shutdown();
  });
  ASSERT_TRUE(first.ok && second.ok);
  EXPECT_GT(first.swap_wait_s, 0.0);
  EXPECT_EQ(second.swap_wait_s, 0.0);
  EXPECT_LT(second.ttft_s, first.ttft_s);
  EXPECT_EQ(serve.metrics().swap_ins, 1u);
  const ModelMetrics& mm =
      serve.metrics().per_model().at("llama-3.2-1b-fp16");
  EXPECT_EQ(mm.served_after_swap_in, 1u);
  EXPECT_EQ(mm.served_resident, 1u);
}

TEST(SwapServeTest, MemoryPressurePreemptsIdleBackend) {
  TestBed bed;
  // Two vLLM backends each claim ~72 GB: they can never be resident
  // together on one 80 GB GPU, so serving B must preempt A.
  SwapServe serve(bed.sim, bed.MakeConfig({
                      {"llama-3.2-1b-fp16", "vllm"},
                      {"deepseek-r1-14b-fp16", "vllm"},
                  }),
                  bed.catalog, bed.hardware());
  ChatResult a;
  ChatResult b;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    a = co_await serve.ChatAndWait("llama-3.2-1b-fp16", 100, 32);
    b = co_await serve.ChatAndWait("deepseek-r1-14b-fp16", 100, 32);
    serve.Shutdown();
  });
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_GE(serve.metrics().preemptions, 1u);
  EXPECT_EQ(serve.backend("llama-3.2-1b-fp16")->engine->state(),
            engine::BackendState::kSwappedOut);
  EXPECT_EQ(serve.backend("deepseek-r1-14b-fp16")->engine->state(),
            engine::BackendState::kRunning);
}

TEST(SwapServeTest, PingPongBetweenTwoLargeBackends) {
  TestBed bed;
  SwapServe serve(bed.sim, bed.MakeConfig({
                      {"llama-3.2-1b-fp16", "vllm"},
                      {"deepseek-r1-14b-fp16", "vllm"},
                  }),
                  bed.catalog, bed.hardware());
  int failures = 0;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    for (int round = 0; round < 3; ++round) {
      for (const char* m :
           {"llama-3.2-1b-fp16", "deepseek-r1-14b-fp16"}) {
        ChatResult r = co_await serve.ChatAndWait(m, 64, 16);
        if (!r.ok) ++failures;
      }
    }
    serve.Shutdown();
  });
  EXPECT_EQ(failures, 0);
  // Each round after the first swaps both models.
  EXPECT_EQ(serve.metrics().swap_ins, 6u);
  EXPECT_GE(serve.metrics().preemptions, 4u);
}

TEST(SwapServeTest, DefaultConfigRestoresThroughUnboundedTier) {
  TestBed bed;
  Config cfg = bed.MakeConfig({
      {"llama-3.2-1b-fp16", "vllm"},
      {"deepseek-r1-14b-fp16", "vllm"},
  });
  ASSERT_EQ(cfg.global.host_cache_mib, 0.0);
  SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    for (int round = 0; round < 2; ++round) {
      for (const ModelEntry& entry : cfg.models) {
        ChatResult r = co_await serve.ChatAndWait(entry.model_id, 64, 16);
        EXPECT_TRUE(r.ok) << r.error;
      }
    }
    serve.Shutdown();
  });
  const ckpt::SnapshotTierManager* tier = serve.tier_manager();
  ASSERT_NE(tier, nullptr);
  EXPECT_FALSE(tier->bounded());
  EXPECT_EQ(serve.ckpt_engine().swap_in_count(), 4u);
  // Every restore was a host hit; an unbounded tier never demotes.
  EXPECT_EQ(tier->host_hits(), serve.ckpt_engine().swap_in_count());
  EXPECT_EQ(tier->demotions(), 0u);
  EXPECT_EQ(tier->nvme_misses(), 0u);
}

TEST(SwapServeTest, TwoSmallModelsCoexistOnOneGpu) {
  TestBed bed;
  // §3.4's example: small Ollama-backed models fit together, so serving
  // one must not evict the other.
  SwapServe serve(bed.sim, bed.MakeConfig({
                      {"gemma-7b-fp16", "ollama"},
                      {"deepseek-coder-6.7b-fp16", "ollama"},
                  }),
                  bed.catalog, bed.hardware());
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    ChatResult a = co_await serve.ChatAndWait("gemma-7b-fp16", 64, 16);
    ChatResult b =
        co_await serve.ChatAndWait("deepseek-coder-6.7b-fp16", 64, 16);
    EXPECT_TRUE(a.ok && b.ok);
    serve.Shutdown();
  });
  EXPECT_EQ(serve.metrics().preemptions, 0u);
  EXPECT_EQ(serve.backend("gemma-7b-fp16")->engine->state(),
            engine::BackendState::kRunning);
  EXPECT_EQ(serve.backend("deepseek-coder-6.7b-fp16")->engine->state(),
            engine::BackendState::kRunning);
}

TEST(SwapServeTest, ConcurrentRequestsForSwappedOutModelShareOneSwapIn) {
  TestBed bed;
  SwapServe serve(bed.sim,
                  bed.MakeConfig({{"llama-3.2-1b-fp16", "ollama"}}),
                  bed.catalog, bed.hardware());
  int ok_count = 0;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    // Fire 5 requests at the same instant.
    std::vector<sim::Task<>> tasks;
    for (int i = 0; i < 5; ++i) {
      tasks.push_back([](SwapServe& s, int* counter) -> sim::Task<> {
        ChatResult r = co_await s.ChatAndWait("llama-3.2-1b-fp16", 64, 16);
        if (r.ok) ++*counter;
      }(serve, &ok_count));
    }
    co_await sim::WhenAll(bed.sim, std::move(tasks));
    serve.Shutdown();
  });
  EXPECT_EQ(ok_count, 5);
  EXPECT_EQ(serve.metrics().swap_ins, 1u);  // deduplicated
}

TEST(SwapServeTest, UnknownModelRejected) {
  TestBed bed;
  SwapServe serve(bed.sim,
                  bed.MakeConfig({{"llama-3.2-1b-fp16", "ollama"}}),
                  bed.catalog, bed.hardware());
  ChatResult r;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    r = co_await serve.ChatAndWait("no-such-model", 10, 10);
    serve.Shutdown();
  });
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("NOT_FOUND"), std::string::npos);
}

TEST(SwapServeTest, QueueFullRejectsWith429Semantics) {
  TestBed bed;
  Config cfg = bed.MakeConfig({{"llama-3.2-1b-fp16", "ollama"}});
  cfg.global.queue_capacity = 2;
  SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
  int rejected = 0;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    // Saturate: the worker is busy swapping in while we enqueue.
    for (int i = 0; i < 10; ++i) {
      InferenceRequest req;
      req.model = "llama-3.2-1b-fp16";
      req.prompt_tokens = 32;
      req.max_tokens = 8;
      Result<ResponseChannelPtr> ch = serve.handler().Accept(req);
      if (!ch.ok()) ++rejected;
    }
    serve.Shutdown();
  });
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(serve.metrics().TotalRejected(),
            static_cast<std::uint64_t>(rejected));
}

TEST(SwapServeTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    TestBed bed;
    SwapServe serve(bed.sim, bed.MakeConfig({
                        {"llama-3.2-1b-fp16", "vllm"},
                        {"deepseek-r1-7b-fp16", "ollama"},
                    }),
                    bed.catalog, bed.hardware());
    double total = 0;
    bed.RunTask([&]() -> sim::Task<> {
      EXPECT_TRUE((co_await serve.Initialize()).ok());
      for (int i = 0; i < 4; ++i) {
        ChatResult a =
            co_await serve.ChatAndWait("llama-3.2-1b-fp16", 100, 20);
        ChatResult b =
            co_await serve.ChatAndWait("deepseek-r1-7b-fp16", 200, 40);
        total += a.total_s + b.total_s;
      }
      serve.Shutdown();
    });
    return total;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(SwapServeTest, InvalidConfigRejectedByValidate) {
  TestBed bed;
  Config cfg = bed.MakeConfig({{"not-in-catalog", "vllm"}});
  EXPECT_FALSE(cfg.Validate(bed.catalog, 1).ok());

  Config cfg2 = bed.MakeConfig({{"llama-3.2-1b-fp16", "unknown-engine"}});
  EXPECT_FALSE(cfg2.Validate(bed.catalog, 1).ok());

  Config cfg3 = bed.MakeConfig({{"llama-3.2-1b-fp16", "vllm"}});
  cfg3.models[0].gpu = 5;
  EXPECT_FALSE(cfg3.Validate(bed.catalog, 1).ok());
}

}  // namespace
}  // namespace swapserve::core
