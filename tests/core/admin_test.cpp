// §4.2's explicit swap calls (SwapServe::SwapIn/SwapOut) and the idle
// reaper.

#include <gtest/gtest.h>

#include "core/idle_reaper.h"
#include "core/swap_serve.h"
#include "fixture.h"

namespace swapserve::core {
namespace {

using testing::TestBed;

TEST(ExplicitSwapTest, SwapInWarmsBackend) {
  TestBed bed;
  SwapServe serve(bed.sim,
                  bed.MakeConfig({{"llama-3.2-1b-fp16", "ollama"}}),
                  bed.catalog, bed.hardware());
  ChatResult r;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    // Warm the backend explicitly (e.g. ahead of a known traffic spike).
    EXPECT_TRUE((co_await serve.SwapIn("llama-3.2-1b-fp16")).ok());
    EXPECT_EQ(serve.backend("llama-3.2-1b-fp16")->engine->state(),
              engine::BackendState::kRunning);
    // The next request is then served resident — no swap wait.
    r = co_await serve.ChatAndWait("llama-3.2-1b-fp16", 32, 8);
    serve.Shutdown();
  });
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.swap_wait_s, 0.0);
}

TEST(ExplicitSwapTest, SwapOutParksBackend) {
  TestBed bed;
  SwapServe serve(bed.sim,
                  bed.MakeConfig({{"llama-3.2-1b-fp16", "ollama"}}),
                  bed.catalog, bed.hardware());
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    (void)co_await serve.ChatAndWait("llama-3.2-1b-fp16", 32, 8);
    EXPECT_EQ(serve.backend("llama-3.2-1b-fp16")->engine->state(),
              engine::BackendState::kRunning);
    EXPECT_TRUE((co_await serve.SwapOut("llama-3.2-1b-fp16")).ok());
    EXPECT_EQ(serve.backend("llama-3.2-1b-fp16")->engine->state(),
              engine::BackendState::kSwappedOut);
    EXPECT_EQ(bed.gpus[0]->used().count(), 0);
    serve.Shutdown();
  });
}

TEST(ExplicitSwapTest, UnknownModelRejected) {
  TestBed bed;
  SwapServe serve(bed.sim,
                  bed.MakeConfig({{"llama-3.2-1b-fp16", "ollama"}}),
                  bed.catalog, bed.hardware());
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    const Status in = co_await serve.SwapIn("ghost");
    const Status out = co_await serve.SwapOut("ghost");
    for (const Status& status : {in, out}) {
      EXPECT_EQ(status.code(), StatusCode::kNotFound);
      EXPECT_EQ(status.message(), "model ghost is not served");
    }
    serve.Shutdown();
  });
}

TEST(IdleReaperTest, ParksIdleBackendAfterThreshold) {
  TestBed bed;
  Config cfg = bed.MakeConfig({{"llama-3.2-1b-fp16", "ollama"}});
  cfg.global.idle_swap_out_s = 60;
  SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    (void)co_await serve.ChatAndWait("llama-3.2-1b-fp16", 32, 8);
    EXPECT_EQ(serve.backend("llama-3.2-1b-fp16")->engine->state(),
              engine::BackendState::kRunning);
    co_await bed.sim.Delay(sim::Seconds(90));
    EXPECT_EQ(serve.backend("llama-3.2-1b-fp16")->engine->state(),
              engine::BackendState::kSwappedOut);
    EXPECT_EQ(bed.gpus[0]->used().count(), 0);
    // Requests still work afterwards (swap back in).
    ChatResult r = co_await serve.ChatAndWait("llama-3.2-1b-fp16", 32, 8);
    EXPECT_TRUE(r.ok);
    EXPECT_GT(r.swap_wait_s, 0.0);
    serve.Shutdown();
  });
}

TEST(IdleReaperTest, BusyBackendNotParked) {
  TestBed bed;
  Config cfg = bed.MakeConfig({{"llama-3.2-1b-fp16", "ollama"}});
  cfg.global.idle_swap_out_s = 30;
  SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    // Keep issuing requests every 10 s: never idle long enough.
    for (int i = 0; i < 12; ++i) {
      ChatResult r = co_await serve.ChatAndWait("llama-3.2-1b-fp16", 32, 8);
      EXPECT_TRUE(r.ok);
      co_await bed.sim.Delay(sim::Seconds(10));
    }
    EXPECT_EQ(serve.backend("llama-3.2-1b-fp16")->engine->state(),
              engine::BackendState::kRunning);
    serve.Shutdown();
  });
  // Exactly the initial swap-in; the reaper never intervened.
  EXPECT_EQ(serve.metrics().swap_ins, 1u);
}

TEST(IdleReaperTest, DisabledByDefault) {
  TestBed bed;
  SwapServe serve(bed.sim,
                  bed.MakeConfig({{"llama-3.2-1b-fp16", "ollama"}}),
                  bed.catalog, bed.hardware());
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    (void)co_await serve.ChatAndWait("llama-3.2-1b-fp16", 32, 8);
    co_await bed.sim.Delay(sim::Hours(2));
    // Stays resident forever without the reaper or memory pressure.
    EXPECT_EQ(serve.backend("llama-3.2-1b-fp16")->engine->state(),
              engine::BackendState::kRunning);
    serve.Shutdown();
  });
}

}  // namespace
}  // namespace swapserve::core
