// Cross-engine behaviour: profile rows, container boot, cold-start ordering
// (Fig. 2's shape), memory policies, adopted standbys, and concurrent
// generation batching.

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine_env.h"
#include "sim/combinators.h"

namespace swapserve::engine {
namespace {

using testing::EngineBed;

using model::EngineKind;

constexpr EngineKind kAllKinds[] = {EngineKind::kVllm, EngineKind::kOllama,
                                    EngineKind::kSglang, EngineKind::kTrtllm};

TEST(EngineProfileTest, ConstructsEveryKind) {
  EngineBed bed;
  model::ModelSpec spec = bed.catalog.Find("llama-3.2-1b-fp16").value();
  for (EngineKind kind : kAllKinds) {
    const model::EngineProfile& row = model::ProfileFor(kind);
    InferenceEngine eng(row, bed.env(), spec, EngineOptions{},
                        "f-" + std::string(row.name));
    EXPECT_EQ(eng.kind_name(), row.name);
    EXPECT_EQ(eng.state(), BackendState::kUninitialized);
  }
}

TEST(EngineProfileTest, Names) {
  EXPECT_EQ(model::ProfileFor(EngineKind::kVllm).name, "vllm");
  EXPECT_EQ(BackendStateName(BackendState::kSwappedOut), "swapped-out");
}

// The row's boot cost is what a cold start's container phase takes, to the
// nanosecond. A standby that adopts a replicated checkpoint pays none of
// it: its container is paused from the start, so it can never boot.
TEST(EngineProfileTest, ColdStartPaysTheRowsBootAndAdoptPaysNone) {
  const model::ModelSpec spec = model::ModelCatalog::Default()
                                    .Find("llama-3.2-1b-fp16")
                                    .value();
  for (EngineKind kind : kAllKinds) {
    const model::EngineProfile& row = model::ProfileFor(kind);
    EngineBed home;
    InferenceEngine cold(row, home.env(), spec, EngineOptions{}, "home");
    home.Run([&]() -> sim::Task<> {
      Result<InitBreakdown> init = co_await cold.ColdStart();
      EXPECT_TRUE(init.ok()) << row.name;
      if (!init.ok()) co_return;
      EXPECT_EQ(init->container_start,
                row.boot.create_start + row.boot.entrypoint_boot)
          << row.name;
    });
    EXPECT_GT(row.boot.entrypoint_boot, sim::SimDuration(0)) << row.name;

    EngineBed standby;
    InferenceEngine adopted(row, standby.env(), spec, EngineOptions{},
                            "standby");
    ASSERT_TRUE(adopted.AdoptCheckpoint().ok()) << row.name;
    EXPECT_EQ(adopted.container().state(), container::ContainerState::kPaused)
        << row.name;
    standby.Run([&]() -> sim::Task<> {
      EXPECT_EQ((co_await adopted.container().Start()).code(),
                StatusCode::kFailedPrecondition)
          << row.name;
    });
    EXPECT_EQ(standby.sim.Now(), sim::SimTime()) << row.name;
  }
}

// Only a row with the capability may unload; the others refuse before
// touching any state.
TEST(EngineProfileTest, LoadAndUnloadNeedTheCapability) {
  for (EngineKind kind : {EngineKind::kVllm, EngineKind::kSglang,
                          EngineKind::kTrtllm}) {
    EngineBed bed;
    InferenceEngine eng(model::ProfileFor(kind), bed.env(),
                        bed.catalog.Find("llama-3.2-1b-fp16").value(),
                        EngineOptions{}, "no-unload");
    bed.Run([&]() -> sim::Task<> {
      EXPECT_TRUE((co_await eng.ColdStart()).ok());
      const Bytes used = bed.gpu.used();
      EXPECT_EQ((co_await eng.UnloadModel()).code(),
                StatusCode::kFailedPrecondition);
      EXPECT_EQ((co_await eng.LoadModel()).code(),
                StatusCode::kFailedPrecondition);
      EXPECT_EQ(bed.gpu.used(), used);
      EXPECT_TRUE(eng.model_loaded());
    });
  }
}

// A standby that adopts a replicated checkpoint must carry the bytes a
// home-node swap-out of the same model produced: the snapshot's clean and
// dirty counts line up on both nodes. Cold start and adopt size the KV
// arena through one function; this pins them together for every row, TP
// degree and sleep setting.
TEST(EngineAdoptTest, AdoptedStandbyMatchesHomeSwapOut) {
  const model::ModelSpec spec = model::ModelCatalog::Default()
                                    .Find("llama-3.2-1b-fp16")
                                    .value();
  for (EngineKind kind : kAllKinds) {
    for (int tp : {1, 2}) {
      for (bool sleep_mode : {true, false}) {
        const std::string label = std::string(model::ProfileFor(kind).name) +
                                  " tp=" + std::to_string(tp) +
                                  " sleep=" + std::to_string(sleep_mode);
        const EngineOptions options{.gpu_memory_utilization = 0.9,
                                    .sleep_mode = sleep_mode};
        auto make_env = [tp](EngineBed& bed, hw::GpuDevice& second) {
          EngineEnv env = bed.env();
          if (tp == 2) env.tp_group = {&bed.gpu, &second};
          return env;
        };

        EngineBed home;
        hw::GpuDevice home_second(home.sim, 1, home.gpu.spec());
        InferenceEngine cold(model::ProfileFor(kind),
                             make_env(home, home_second), spec, options,
                             "home");
        home.Run([&]() -> sim::Task<> {
          EXPECT_TRUE((co_await cold.ColdStart()).ok()) << label;
          EXPECT_TRUE((co_await cold.PrepareForCheckpoint()).ok()) << label;
        });

        EngineBed standby;
        hw::GpuDevice standby_second(standby.sim, 1, standby.gpu.spec());
        InferenceEngine adopted(model::ProfileFor(kind),
                                make_env(standby, standby_second), spec,
                                options, "standby");
        ASSERT_TRUE(adopted.AdoptCheckpoint().ok()) << label;

        EXPECT_EQ(adopted.state(), BackendState::kSwappedOut) << label;
        EXPECT_EQ(adopted.DirtyBytes(), cold.DirtyBytes()) << label;
        EXPECT_EQ(adopted.CleanBytes(), cold.CleanBytes()) << label;
        EXPECT_EQ(adopted.sleeping(), cold.sleeping()) << label;
        // Nothing moved on the standby's devices: the restore pays for it.
        EXPECT_EQ(standby.gpu.used(), Bytes(0)) << label;
        EXPECT_GT(cold.GpuResidentBytes(), Bytes(0)) << label;
      }
    }
  }
}

double ColdStartSeconds(EngineKind kind, const std::string& model_id) {
  EngineBed bed;
  InferenceEngine eng(model::ProfileFor(kind), bed.env(),
                      bed.catalog.Find(model_id).value(), EngineOptions{},
                      "order-test");
  double total = 0;
  bed.Run([&]() -> sim::Task<> {
    Result<InitBreakdown> init = co_await eng.ColdStart();
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
  for (EngineKind kind : kAllKinds) {
    const double small = ColdStartSeconds(kind, "llama-3.2-1b-fp16");
    const double large = ColdStartSeconds(kind, "deepseek-r1-14b-fp16");
    EXPECT_LT(small, large) << model::ProfileFor(kind).name;
  }
}

TEST(EngineMemoryTest, PreallocatingEnginesClaimMostOfHbm) {
  for (EngineKind kind :
       {EngineKind::kVllm, EngineKind::kSglang, EngineKind::kTrtllm}) {
    EngineBed bed;
    InferenceEngine eng(model::ProfileFor(kind), bed.env(),
                        bed.catalog.Find("llama-3.2-1b-fp16").value(),
                        EngineOptions{}, "mem-test");
    bed.Run([&]() -> sim::Task<> {
      EXPECT_TRUE((co_await eng.ColdStart()).ok());
    });
    EXPECT_GT(bed.gpu.used().AsGiB(), 65.0) << model::ProfileFor(kind).name;
  }
}

TEST(EngineMemoryTest, OllamaClaimsOnlyModelFootprint) {
  EngineBed bed;
  auto eng = std::make_unique<InferenceEngine>(
      model::ProfileFor(EngineKind::kOllama), bed.env(),
      bed.catalog.Find("llama-3.2-1b-fp16").value(), EngineOptions{},
      "mem-ollama");
  bed.Run([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await eng->ColdStart()).ok());
  });
  EXPECT_LT(bed.gpu.used().AsGiB(), 5.0);
}

TEST(EngineBatchingTest, ConcurrentGenerationsShareTheDevice) {
  EngineBed bed;
  auto eng = std::make_unique<InferenceEngine>(
      model::ProfileFor(EngineKind::kVllm), bed.env(),
      bed.catalog.Find("llama-3.1-8b-fp16").value(), EngineOptions{},
      "batch-test");
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
  auto eng = std::make_unique<InferenceEngine>(
      model::ProfileFor(EngineKind::kOllama), bed.env(),
      bed.catalog.Find("llama-3.2-1b-fp16").value(), EngineOptions{},
      "busy-test");
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
