// Tensor-parallel multi-GPU backends (§6): sharded allocation, group-wide
// swap operations, scoped multi-GPU reservations, and cross-group
// preemption.

#include <gtest/gtest.h>

#include "core/swap_serve.h"
#include "fixture.h"

namespace swapserve::core {
namespace {

using testing::TestBed;

Config TpConfig(TestBed& bed, const std::string& model_id,
                const std::string& engine, int gpu, int tp) {
  Config cfg = bed.MakeConfig({{model_id, engine}});
  cfg.models[0].gpu = gpu;
  cfg.models[0].tp = tp;
  return cfg;
}

TEST(TensorParallelTest, ConfigValidatesGroupBounds) {
  TestBed bed(2);
  Config ok = TpConfig(bed, "llama-3.3-70b-fp8", "vllm", 0, 2);
  EXPECT_TRUE(ok.Validate(bed.catalog, 2).ok());
  Config too_wide = TpConfig(bed, "llama-3.3-70b-fp8", "vllm", 1, 2);
  EXPECT_FALSE(too_wide.Validate(bed.catalog, 2).ok());
  Config zero = TpConfig(bed, "llama-3.3-70b-fp8", "vllm", 0, 0);
  EXPECT_FALSE(zero.Validate(bed.catalog, 2).ok());
}

TEST(TensorParallelTest, VllmShardsClaimEveryGroupMember) {
  TestBed bed(2);
  SwapServe serve(bed.sim, TpConfig(bed, "llama-3.3-70b-fp8", "vllm", 0, 2),
                  bed.catalog, bed.hardware());
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    EXPECT_TRUE((co_await serve.SwapIn("llama-3.3-70b-fp8")).ok());
    serve.Shutdown();
  });
  // 0.9 * 80 GiB claimed on EACH GPU (weights + arena shards).
  EXPECT_NEAR(bed.gpus[0]->used().AsGiB(), 72.0, 0.2);
  EXPECT_NEAR(bed.gpus[1]->used().AsGiB(), 72.0, 0.2);
  Backend* b = serve.backend("llama-3.3-70b-fp8");
  EXPECT_EQ(b->engine->tp_degree(), 2);
  EXPECT_NEAR(b->engine->GpuResidentBytes().AsGiB(), 144.0, 0.5);
}

TEST(TensorParallelTest, SwapCycleCoversWholeGroup) {
  TestBed bed(2);
  SwapServe serve(bed.sim,
                  TpConfig(bed, "llama-3.3-70b-fp8", "ollama", 0, 2),
                  bed.catalog, bed.hardware());
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    // Parked: both GPUs empty, one snapshot covering the group.
    EXPECT_EQ(bed.gpus[0]->used().count(), 0);
    EXPECT_EQ(bed.gpus[1]->used().count(), 0);
    EXPECT_EQ(serve.snapshot_store().count(), 1u);

    ChatResult r = co_await serve.ChatAndWait("llama-3.3-70b-fp8", 64, 16);
    EXPECT_TRUE(r.ok) << r.error;
    // Restored: both shards back.
    EXPECT_GT(bed.gpus[0]->used().count(), 0);
    EXPECT_GT(bed.gpus[1]->used().count(), 0);
    EXPECT_NEAR(bed.gpus[0]->used().AsGiB(), bed.gpus[1]->used().AsGiB(),
                0.2);
    serve.Shutdown();
  });
  EXPECT_EQ(serve.metrics().swap_ins, 1u);
}

TEST(TensorParallelTest, RestoreParallelizesAcrossShards) {
  // The same ~71 GB resident set restores faster sharded across two GPUs
  // (each PCIe link moves half the dirty bytes).
  auto swap_in_latency = [](int tp) {
    TestBed bed(2);
    SwapServe serve(
        bed.sim, TpConfig(bed, "llama-3.3-70b-fp8", "ollama", 0, tp),
        bed.catalog, bed.hardware());
    bed.RunTask([&]() -> sim::Task<> {
      EXPECT_TRUE((co_await serve.Initialize()).ok());
      ChatResult r =
          co_await serve.ChatAndWait("llama-3.3-70b-fp8", 64, 16);
      EXPECT_TRUE(r.ok) << r.error;
      serve.Shutdown();
    });
    return serve.metrics().swap_in_latency_s.max();
  };
  const double single = swap_in_latency(1);
  const double sharded = swap_in_latency(2);
  EXPECT_LT(sharded, single * 0.65);
  EXPECT_GT(sharded, single * 0.40);  // fixed costs don't parallelize
}

TEST(TensorParallelTest, TpDecodeFasterThanSingleGpu) {
  auto decode_time = [](int tp) {
    TestBed bed(2);
    SwapServe serve(
        bed.sim, TpConfig(bed, "llama-3.3-70b-fp8", "ollama", 0, tp),
        bed.catalog, bed.hardware());
    double total = 0;
    bed.RunTask([&]() -> sim::Task<> {
      EXPECT_TRUE((co_await serve.Initialize()).ok());
      EXPECT_TRUE((co_await serve.SwapIn("llama-3.3-70b-fp8")).ok());
      ChatResult r =
          co_await serve.ChatAndWait("llama-3.3-70b-fp8", 64, 200);
      EXPECT_TRUE(r.ok) << r.error;
      total = r.total_s;
      serve.Shutdown();
    });
    return total;
  };
  const double single = decode_time(1);
  const double sharded = decode_time(2);
  // ~2x bandwidth minus the all-reduce derate.
  EXPECT_LT(sharded, single * 0.65);
}

TEST(TensorParallelTest, PreemptingTpBackendFreesAllItsGpus) {
  TestBed bed(2);
  // One TP-2 backend spanning both GPUs + one single-GPU backend on gpu 1.
  Config cfg = bed.MakeConfig({
      {"llama-3.3-70b-fp8", "ollama"},
      {"deepseek-r1-14b-fp16", "vllm"},
  });
  cfg.models[0].tp = 2;
  cfg.models[1].gpu = 1;
  cfg.global.snapshot_budget_gib = 256;
  SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    // Bring the TP model in: occupies shards on gpu 0 and gpu 1.
    ChatResult a = co_await serve.ChatAndWait("llama-3.3-70b-fp8", 64, 8);
    EXPECT_TRUE(a.ok) << a.error;
    // The vLLM backend needs ~72 GiB on gpu 1 -> must evict the TP
    // backend, which frees its shards on BOTH GPUs.
    ChatResult b =
        co_await serve.ChatAndWait("deepseek-r1-14b-fp16", 64, 8);
    EXPECT_TRUE(b.ok) << b.error;
    EXPECT_EQ(serve.backend("llama-3.3-70b-fp8")->engine->state(),
              engine::BackendState::kSwappedOut);
    EXPECT_EQ(bed.gpus[0]->used().count(), 0);  // shard freed here too
    EXPECT_GT(bed.gpus[1]->used().count(), 0);  // vLLM now resident
    serve.Shutdown();
  });
  EXPECT_GE(serve.metrics().preemptions, 1u);
}

TEST(TensorParallelTest, OverlappingGroupsPingPongWithoutDeadlock) {
  TestBed bed(2);
  // Two TP-2 backends over the same pair of GPUs: classic deadlock bait
  // for multi-resource acquisition; ordered reservations must serialize.
  Config cfg = bed.MakeConfig({
      {"llama-3.3-70b-fp8", "ollama"},
      {"deepseek-r1-14b-fp16", "ollama"},
  });
  cfg.models[0].tp = 2;
  cfg.models[1].tp = 2;
  // Make them mutually exclusive: shrink both GPUs.
  bed.gpus.clear();
  hw::GpuSpec small = hw::GpuSpec::H100Hbm3_80GB();
  small.memory = GiB(40);
  bed.gpus.push_back(std::make_unique<hw::GpuDevice>(bed.sim, 0, small));
  bed.gpus.push_back(std::make_unique<hw::GpuDevice>(bed.sim, 1, small));
  SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
  int failures = 0;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    for (int round = 0; round < 3; ++round) {
      for (const char* m :
           {"llama-3.3-70b-fp8", "deepseek-r1-14b-fp16"}) {
        ChatResult r = co_await serve.ChatAndWait(m, 32, 8);
        if (!r.ok) ++failures;
      }
    }
    serve.Shutdown();
  });
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(serve.metrics().swap_ins, 6u);
}

}  // namespace
}  // namespace swapserve::core
