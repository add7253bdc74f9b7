// Engine supervisor: hang detection and age-based rejuvenation. Crash
// recovery lives in the scheduler (scheduler_test.cpp).

#include "core/engine_supervisor.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "core/swap_serve.h"
#include "fixture.h"

namespace swapserve::core {
namespace {

using testing::TestBed;

constexpr const char* kModel = "llama-3.2-1b-fp16";

fault::FaultRule Rule(std::string point, double probability) {
  fault::FaultRule rule;
  rule.point = std::move(point);
  rule.probability = probability;
  return rule;
}

fault::FaultPlan OneRule(fault::FaultRule rule) {
  fault::FaultPlan plan;
  plan.rules.push_back(std::move(rule));
  return plan;
}

TEST(EngineSupervisorTest, HangDetectionCrashesAndRestartsTheEngine) {
  TestBed bed;
  Config cfg = bed.MakeConfig({{kModel, "ollama"}});
  cfg.recovery.hang_deadline_s = 5.0;
  SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
  ChatResult result;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    EXPECT_TRUE((co_await serve.ChatAndWait(kModel, 64, 16)).ok);
    // One request wedges for 60 (virtual) seconds at entry.
    fault::FaultRule rule = Rule("engine.hang", 1.0);
    rule.stall_s = 60.0;
    rule.fail = false;
    rule.max_fires = 1;
    serve.fault_injector().Configure(OneRule(rule));
    result = co_await serve.ChatAndWait(kModel, 128, 32);
    serve.Shutdown();
  });
  // The supervisor declared the hang a crash, restarted the engine, and the
  // requeued request completed — well before the 60s stall would resolve.
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GE(serve.metrics().recoveries, 1u);
  EXPECT_GE(serve.metrics().requeues, 1u);
  EXPECT_GE(serve.backend(kModel)->engine->crash_count(), 1u);
}

TEST(EngineSupervisorTest, RejuvenationParksLongResidentIdleBackends) {
  TestBed bed;
  Config cfg = bed.MakeConfig({{kModel, "ollama"}});
  cfg.recovery.rejuvenate_after_s = 60.0;
  SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    EXPECT_TRUE((co_await serve.ChatAndWait(kModel, 64, 16)).ok);
    EXPECT_EQ(serve.backend(kModel)->engine->state(),
              engine::BackendState::kRunning);
    co_await bed.sim.Delay(sim::Minutes(3));  // idle past the threshold
    EXPECT_EQ(serve.backend(kModel)->engine->state(),
              engine::BackendState::kSwappedOut);
    // It comes back on demand like any parked backend.
    ChatResult again = co_await serve.ChatAndWait(kModel, 64, 16);
    EXPECT_TRUE(again.ok) << again.error;
    serve.Shutdown();
  });
  EXPECT_GE(serve.metrics().rejuvenations, 1u);
}

TEST(EngineSupervisorTimingTest, ArmedTimeChecksKeepTheLoopTicking) {
  // Hang detection and rejuvenation are time-based: with either armed the
  // loop scans every interval, exactly as before parking existed.
  for (const bool hang : {true, false}) {
    TestBed bed;
    Config cfg = bed.MakeConfig({{kModel, "ollama"}});
    if (hang) {
      cfg.recovery.hang_deadline_s = 5.0;
    } else {
      cfg.recovery.rejuvenate_after_s = 3600.0;
    }
    SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
    bed.RunTask([&]() -> sim::Task<> {
      EXPECT_TRUE((co_await serve.Initialize()).ok());
      const sim::SimTime start = bed.sim.Now();
      co_await bed.sim.WaitUntil(start + sim::Millis(10500));
      EXPECT_EQ(serve.supervisor()->passes(), 10u) << "hang armed: " << hang;
      serve.Shutdown();
    });
  }
}

TEST(EngineSupervisorTest, StopThenStartRunsOneLoop) {
  TestBed bed;
  Config cfg = bed.MakeConfig({{kModel, "ollama"}});
  cfg.recovery.hang_deadline_s = 5.0;
  SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    EngineSupervisor& sup = *serve.supervisor();
    // The old loop is asleep toward its next tick when the new one starts.
    co_await bed.sim.Delay(sim::Millis(5400));
    sup.Stop();
    sup.Start();
    const std::uint64_t before = sup.passes();
    co_await bed.sim.Delay(sim::Millis(10500));
    EXPECT_EQ(sup.passes() - before, 10u);
    serve.Shutdown();
  });
}

// Both checks are time-based; with neither armed there is no supervisor,
// so an idle system schedules no supervisor events.
TEST(EngineSupervisorTest, BuiltOnlyWhenATimeCheckIsArmed) {
  struct Case {
    double interval_s, hang_deadline_s, rejuvenate_after_s;
    bool built;
  };
  for (const Case c : {Case{1, 0, 0, false}, Case{0, 5, 0, false},
                       Case{1, 5, 0, true}, Case{1, 0, 60, true}}) {
    TestBed bed;
    Config cfg = bed.MakeConfig({{kModel, "ollama"}});
    cfg.recovery.health_check_interval_s = c.interval_s;
    cfg.recovery.hang_deadline_s = c.hang_deadline_s;
    cfg.recovery.rejuvenate_after_s = c.rejuvenate_after_s;
    SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
    bed.RunTask([&]() -> sim::Task<> {
      EXPECT_TRUE((co_await serve.Initialize()).ok());
      EXPECT_EQ(serve.supervisor() != nullptr, c.built)
          << c.interval_s << " " << c.hang_deadline_s << " "
          << c.rejuvenate_after_s;
      serve.Shutdown();
    });
  }
}

}  // namespace
}  // namespace swapserve::core
