// Property sweep: for every (engine, model) pair, repeated swap cycles
// preserve all resource-accounting invariants.

#include <tuple>

#include <gtest/gtest.h>

#include "../core/fixture.h"
#include "core/swap_serve.h"

namespace swapserve::core {
namespace {

using testing::TestBed;

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

  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    Bytes resident_after_first_swap_in{0};
    for (int cycle = 0; cycle < 5; ++cycle) {
      // Swapped out: GPU empty, exactly one snapshot for this backend.
      EXPECT_EQ(backend->engine->state(),
                engine::BackendState::kSwappedOut);
      EXPECT_TRUE(backend->has_snapshot);
      EXPECT_EQ(bed.gpus[0]->used().count(), 0) << "cycle " << cycle;
      EXPECT_EQ(serve.snapshot_store().count(), 1u);

      // Serve one request (forces swap-in).
      ChatResult r = co_await serve.ChatAndWait(model_id, 64, 16);
      EXPECT_TRUE(r.ok) << r.error;
      EXPECT_EQ(backend->engine->state(), engine::BackendState::kRunning);
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
  EXPECT_EQ(serve.metrics().TotalFailed(), 0u);
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
class SwapLatencyMonotone : public ::testing::TestWithParam<const char*> {};

TEST_P(SwapLatencyMonotone, LatencyGrowsWithFootprint) {
  const std::string engine_kind = GetParam();
  struct Point {
    double resident_gb;
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
    bed.RunTask([&]() -> sim::Task<> {
      EXPECT_TRUE((co_await serve.Initialize()).ok());
      ChatResult r = co_await serve.ChatAndWait(model_id, 32, 8);
      EXPECT_TRUE(r.ok) << r.error;
      serve.Shutdown();
    });
    // Dirty snapshot bytes track the weights for both engines.
    points.push_back(
        {serve.backend(model_id)->model.WeightBytes().AsGB(),
         serve.metrics().swap_in_latency_s.max()});
  }
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GT(points[i].resident_gb, points[i - 1].resident_gb);
    EXPECT_GT(points[i].swap_in_s, points[i - 1].swap_in_s)
        << "swap-in latency not monotone at index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, SwapLatencyMonotone,
                         ::testing::Values("vllm", "ollama"));

}  // namespace
}  // namespace swapserve::core
