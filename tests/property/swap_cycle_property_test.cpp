// Property sweep: for every (engine, model) pair, repeated swap cycles
// preserve all resource-accounting invariants, and every swap-in takes the
// time the engine's profile row gives for the bytes it restores.

#include <tuple>

#include <gtest/gtest.h>

#include "../core/fixture.h"
#include "core/swap_serve.h"
#include "model/calibration.h"

namespace swapserve::core {
namespace {

using testing::TestBed;

// What a swap-in may spend beyond the restore model: the unlock and thaw
// overheads (the bound the checkpoint engine's own tests use).
constexpr double kSwapInOverheadS = 0.1;

class SwapCycleProperty
    : public ::testing::TestWithParam<std::tuple<const char*, const char*>> {
};

TEST_P(SwapCycleProperty, RepeatedCyclesPreserveInvariants) {
  const auto [engine_kind, model_id] = GetParam();
  TestBed bed;
  SwapServe serve(bed.sim, bed.MakeConfig({{model_id, engine_kind}}),
                  bed.catalog, bed.hardware());
  Backend* backend = serve.backend(model_id);
  ASSERT_NE(backend, nullptr);
  const model::EngineProfile* row = model::FindEngineProfile(engine_kind);
  ASSERT_NE(row, nullptr);
  ASSERT_NE(bed.gpus[0]->spec().name.find("H100"), std::string::npos);

  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    Bytes resident_after_first_swap_in{0};
    for (int cycle = 0; cycle < 5; ++cycle) {
      // Swapped out: GPU empty, exactly one snapshot for this backend.
      EXPECT_EQ(backend->engine->state(),
                engine::BackendState::kSwappedOut);
      // The swap-in restores these bytes, then wakes a sleeping engine.
      const double expected_swap_in_s =
          row->h100.restore
              .RestoreTime(backend->engine->CleanBytes(),
                           backend->engine->DirtyBytes())
              .ToSeconds() +
          (backend->engine->sleeping() ? row->sleep_mode->wake.ToSeconds()
                                        : 0.0);
      const std::size_t swap_ins = serve.metrics().swap_ins;
      EXPECT_TRUE(backend->has_snapshot);
      EXPECT_EQ(bed.gpus[0]->used().count(), 0) << "cycle " << cycle;
      EXPECT_EQ(serve.snapshot_store().count(), 1u);

      // Serve one request (forces swap-in).
      ChatResult r = co_await serve.ChatAndWait(model_id, 64, 16);
      EXPECT_TRUE(r.ok) << r.error;
      EXPECT_EQ(backend->engine->state(), engine::BackendState::kRunning);
      EXPECT_EQ(serve.metrics().swap_ins, swap_ins + 1);
      // Every swap-in so far took the same time; max() is this one's.
      const double swap_in_s = serve.metrics().swap_in_latency_s.max();
      EXPECT_GE(swap_in_s, expected_swap_in_s) << "cycle " << cycle;
      EXPECT_LE(swap_in_s, expected_swap_in_s + kSwapInOverheadS)
          << "cycle " << cycle;
      EXPECT_EQ(serve.metrics().swap_in_latency_s.min(), swap_in_s);
      EXPECT_FALSE(backend->has_snapshot);
      EXPECT_EQ(serve.snapshot_store().count(), 0u);
      EXPECT_EQ(serve.snapshot_store().used().count(), 0);

      // GPU holds exactly this backend's footprint, nothing else.
      const Bytes resident = bed.gpus[0]->UsedBy(Name(model_id));
      EXPECT_EQ(bed.gpus[0]->used(), resident);
      EXPECT_GT(resident.count(), 0);
      if (cycle == 0) {
        resident_after_first_swap_in = resident;
      } else {
        // Footprint is stable across cycles (no leak, no shrink).
        EXPECT_EQ(resident, resident_after_first_swap_in);
      }

      // Swap back out.
      EXPECT_TRUE(
          (co_await serve.controller().SwapOut(*backend, false)).ok());
    }
    serve.Shutdown();
  });

  // Accounting totals.
  EXPECT_EQ(serve.metrics().swap_ins, 5u);
  EXPECT_EQ(serve.metrics().swap_outs, 6u);  // init + 5 cycles
  EXPECT_EQ(serve.metrics().TotalCompleted(), 5u);
  EXPECT_EQ(serve.metrics().TotalFailed() + serve.metrics().TotalExpired(),
            0u);
  // No reservation leaked.
  EXPECT_EQ(serve.task_manager().OutstandingReserved(0).count(), 0);
  EXPECT_EQ(serve.task_manager().PendingRequests(0), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndModels, SwapCycleProperty,
    ::testing::Combine(
        ::testing::Values("vllm", "ollama", "sglang", "trtllm"),
        ::testing::Values("llama-3.2-1b-fp16", "deepseek-r1-7b-fp16",
                          "deepseek-r1-14b-q8")),
    [](const auto& info) {
      std::string name = std::string(std::get<0>(info.param)) + "_" +
                         std::get<1>(info.param);
      for (char& c : name) {
        if (c == '-' || c == '.') c = '_';
      }
      return name;
    });

// Swap-in latency must be monotone in dirty snapshot bytes for a fixed
// engine (the Fig. 6 relationship), checked across the whole catalog.
// vLLM's sleep mode and Ollama's weights-only footprint make the dirty
// bytes track the weights; SGLang and TRT-LLM checkpoint their whole
// preallocated claim, the same at every model size, so their swap-ins
// take the same time.
class SwapLatencyMonotone : public ::testing::TestWithParam<const char*> {};

TEST_P(SwapLatencyMonotone, LatencyGrowsWithFootprint) {
  const std::string engine_kind = GetParam();
  struct Point {
    Bytes dirty;
    double swap_in_s;
  };
  std::vector<Point> points;
  for (const char* model_id :
       {"llama-3.2-1b-fp16", "llama-3.2-3b-fp16", "deepseek-r1-7b-fp16",
        "deepseek-r1-14b-fp16"}) {
    TestBed bed;
    SwapServe serve(bed.sim,
                    bed.MakeConfig({{model_id, engine_kind}}),
                    bed.catalog, bed.hardware());
    Bytes dirty{0};
    bed.RunTask([&]() -> sim::Task<> {
      EXPECT_TRUE((co_await serve.Initialize()).ok());
      dirty = serve.backend(model_id)->engine->DirtyBytes();
      ChatResult r = co_await serve.ChatAndWait(model_id, 32, 8);
      EXPECT_TRUE(r.ok) << r.error;
      serve.Shutdown();
    });
    points.push_back({dirty, serve.metrics().swap_in_latency_s.max()});
  }
  const bool fixed_claim = engine_kind == "sglang" || engine_kind == "trtllm";
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (!fixed_claim) {
      EXPECT_GT(points[i].dirty, points[i - 1].dirty) << "index " << i;
      EXPECT_GT(points[i].swap_in_s, points[i - 1].swap_in_s)
          << "swap-in latency not monotone at index " << i;
      continue;
    }
    EXPECT_GE(points[i].dirty, points[i - 1].dirty) << "index " << i;
    if (points[i].dirty > points[i - 1].dirty) {
      EXPECT_GT(points[i].swap_in_s, points[i - 1].swap_in_s)
          << "swap-in latency not monotone at index " << i;
    } else {
      EXPECT_EQ(points[i].swap_in_s, points[i - 1].swap_in_s)
          << "same dirty bytes, different swap-in at index " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, SwapLatencyMonotone,
                         ::testing::Values("vllm", "ollama", "sglang",
                                           "trtllm"));

}  // namespace
}  // namespace swapserve::core
