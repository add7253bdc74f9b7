// The idle reaper's loop: a Stop()+Start() within one scan interval leaves
// exactly one loop scanning, on the new grid.

#include "core/idle_reaper.h"

#include <gtest/gtest.h>

#include "core/swap_serve.h"
#include "fixture.h"

namespace swapserve::core {
namespace {

using testing::TestBed;

constexpr const char* kModel = "llama-3.2-1b-fp16";

// The first grid (10 s ticks from `start`) would reap at start + 50 s; the
// restarted one, 3 s later, at start + 53 s. A stale loop still ticking on
// the first grid reaps 3 s early.
TEST(IdleReaperTest, StopThenStartRunsOneLoop) {
  TestBed bed;
  SwapServe serve(bed.sim, bed.MakeConfig({{kModel, "ollama"}}), bed.catalog,
                  bed.hardware());
  IdleReaper reaper(bed.sim, serve.controller(), sim::Seconds(60),
                    sim::Seconds(10));
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    EXPECT_TRUE((co_await serve.ChatAndWait(kModel, 32, 8)).ok);
    Backend& backend = *serve.backend(kModel);
    // The backend falls idle at start + 45 s.
    const sim::SimTime start =
        backend.last_accessed + sim::Seconds(60) - sim::Seconds(45);
    EXPECT_LT(bed.sim.Now(), start);
    co_await bed.sim.WaitUntil(start);
    reaper.Start();
    co_await bed.sim.Delay(sim::Seconds(3));
    reaper.Stop();
    reaper.Start();

    co_await bed.sim.WaitUntil(start + sim::Seconds(51));
    EXPECT_EQ(backend.engine->state(), engine::BackendState::kRunning);
    EXPECT_EQ(reaper.total_reaped(), 0u);
    co_await bed.sim.WaitUntil(start + sim::Seconds(60));
    EXPECT_EQ(backend.engine->state(), engine::BackendState::kSwappedOut);
    EXPECT_EQ(reaper.total_reaped(), 1u);
    reaper.Stop();
    serve.Shutdown();
  });
}

}  // namespace
}  // namespace swapserve::core
