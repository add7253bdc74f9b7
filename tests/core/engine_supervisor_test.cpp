// Self-healing control plane: crash restart, quarantine + re-probe, hang
// detection, and age-based rejuvenation.

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

TEST(EngineSupervisorTest, CrashedBackendIsRestartedInPlace) {
  TestBed bed;
  SwapServe serve(bed.sim, bed.MakeConfig({{kModel, "ollama"}}),
                  bed.catalog, bed.hardware());
  ChatResult after;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    ChatResult warm = co_await serve.ChatAndWait(kModel, 128, 32);
    EXPECT_TRUE(warm.ok);
    Backend* b = serve.backend(kModel);
    EXPECT_EQ(b->engine->state(), engine::BackendState::kRunning);

    b->engine->MarkCrashed("test-induced crash");
    EXPECT_EQ(b->engine->state(), engine::BackendState::kCrashed);
    EXPECT_EQ(bed.gpus[0]->used().count(), 0);  // crash freed the device

    // The next scan (interval 1s) restarts it; a request then serves.
    co_await bed.sim.Delay(sim::Minutes(5));
    EXPECT_EQ(b->engine->state(), engine::BackendState::kRunning);
    EXPECT_GE(b->health.recoveries, 1u);
    after = co_await serve.ChatAndWait(kModel, 128, 32);
    serve.Shutdown();
  });
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_GE(serve.metrics().recoveries, 1u);
  EXPECT_EQ(serve.metrics().quarantines, 0u);
  // A post-recovery request re-promotes the backend to healthy.
  EXPECT_EQ(serve.backend(kModel)->health.state,
            BackendHealth::State::kHealthy);
}

TEST(EngineSupervisorTest, RequestsSurviveACrashViaRequeue) {
  TestBed bed;
  SwapServe serve(bed.sim, bed.MakeConfig({{kModel, "ollama"}}),
                  bed.catalog, bed.hardware());
  ChatResult result;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    EXPECT_TRUE((co_await serve.ChatAndWait(kModel, 64, 16)).ok);
    // Crash the engine, then immediately submit: the scheduler camps on
    // the crashed backend (bounded crash-wait) and the request completes
    // once the supervisor has restarted it — no terminal error.
    serve.backend(kModel)->engine->MarkCrashed("test-induced crash");
    result = co_await serve.ChatAndWait(kModel, 128, 32);
    serve.Shutdown();
  });
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GE(serve.metrics().recoveries, 1u);
  EXPECT_EQ(serve.metrics().TotalFailed(), 0u);
}

TEST(EngineSupervisorTest, RepeatedRestartFailureQuarantinesThenRecovers) {
  TestBed bed;
  Config cfg = bed.MakeConfig({{kModel, "ollama"}});
  cfg.recovery.breaker_cooldown_s = 30.0;
  SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    EXPECT_TRUE((co_await serve.ChatAndWait(kModel, 64, 16)).ok);
    Backend* b = serve.backend(kModel);

    // Every restart attempt fails while this rule is armed.
    fault::FaultRule rule = Rule("engine.restart", 1.0);
    rule.code = StatusCode::kInternal;
    rule.message = "node wedged";
    serve.fault_injector().Configure(OneRule(rule));
    b->engine->MarkCrashed("test-induced crash");
    co_await bed.sim.Delay(sim::Seconds(20));
    EXPECT_EQ(b->health.state, BackendHealth::State::kQuarantined);
    EXPECT_EQ(b->health.breaker.state(),
              fault::CircuitBreaker::State::kOpen);
    EXPECT_EQ(b->engine->state(), engine::BackendState::kCrashed);

    // Quarantined backends fast-fail instead of queueing forever.
    ChatResult during = co_await serve.ChatAndWait(kModel, 64, 16);
    EXPECT_FALSE(during.ok);

    // Clear the fault; the supervisor re-probes after the breaker cooldown
    // and brings the backend back.
    serve.fault_injector().Configure({});
    co_await bed.sim.Delay(sim::Minutes(5));
    EXPECT_EQ(b->engine->state(), engine::BackendState::kRunning);
    ChatResult after = co_await serve.ChatAndWait(kModel, 64, 16);
    EXPECT_TRUE(after.ok) << after.error;
    serve.Shutdown();
  });
  EXPECT_GE(serve.metrics().quarantines, 1u);
  EXPECT_GE(serve.metrics().recoveries, 1u);
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

// --- scan timing -------------------------------------------------------
// The loop parks while no scan could act, but every scan that acts must
// run on the grid anchored at the end of the previous pass (here Start(),
// which runs at the end of Initialize()) — the instants a loop scanning
// every interval would have used. The checks below are exact to the ns.

sim::SimTime JustBefore(sim::SimTime t) { return sim::SimTime(t.ns() - 1); }

// Config whose supervisor quarantines on the first failed restart and
// re-probes once per `cooldown_s`.
Config QuarantineConfig(TestBed& bed, double cooldown_s) {
  Config cfg = bed.MakeConfig({{kModel, "ollama"}});
  cfg.recovery.swap_retry_attempts = 1;
  cfg.recovery.breaker_cooldown_s = cooldown_s;
  return cfg;
}

fault::FaultRule RestartFails() {
  fault::FaultRule rule = Rule("engine.restart", 1.0);
  rule.code = StatusCode::kInternal;
  rule.message = "node wedged";
  return rule;
}

TEST(EngineSupervisorTimingTest, OffGridCrashRestartsAtTheNextGridTick) {
  TestBed bed;
  SwapServe serve(bed.sim, bed.MakeConfig({{kModel, "ollama"}}),
                  bed.catalog, bed.hardware());
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    const sim::SimTime start = bed.sim.Now();
    EngineSupervisor& sup = *serve.supervisor();
    EXPECT_TRUE((co_await serve.ChatAndWait(kModel, 64, 16)).ok);
    Backend* b = serve.backend(kModel);

    // Nothing crashed: no pass has run, however long the system idles.
    const sim::SimTime t0 = start + sim::Seconds(100);  // on the grid
    EXPECT_LT(bed.sim.Now(), t0);
    co_await bed.sim.WaitUntil(t0 + sim::Millis(300));
    EXPECT_EQ(sup.passes(), 0u);

    b->engine->MarkCrashed("test-induced crash");
    const sim::SimTime tick = t0 + sim::Seconds(1);
    co_await bed.sim.WaitUntil(JustBefore(tick));
    EXPECT_EQ(sup.passes(), 0u);
    EXPECT_EQ(b->engine->state(), engine::BackendState::kCrashed);
    co_await bed.sim.WaitUntil(tick);
    EXPECT_EQ(sup.passes(), 1u);
    EXPECT_EQ(b->health.state, BackendHealth::State::kRecovering);
    EXPECT_EQ(b->engine->state(), engine::BackendState::kInitializing);

    // Recovered, the loop parks again: no further passes.
    co_await bed.sim.Delay(sim::Minutes(5));
    EXPECT_EQ(b->engine->state(), engine::BackendState::kRunning);
    EXPECT_EQ(sup.passes(), 1u);
    serve.Shutdown();
  });
  EXPECT_EQ(serve.metrics().recoveries, 1u);
}

TEST(EngineSupervisorTimingTest, PausedCrashRecoversAtFirstTickAfterResume) {
  TestBed bed;
  SwapServe serve(bed.sim, bed.MakeConfig({{kModel, "ollama"}}),
                  bed.catalog, bed.hardware());
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    const sim::SimTime start = bed.sim.Now();
    EngineSupervisor& sup = *serve.supervisor();
    EXPECT_TRUE((co_await serve.ChatAndWait(kModel, 64, 16)).ok);
    Backend* b = serve.backend(kModel);

    // A node power-off: the supervisor pauses, then the engine dies.
    const sim::SimTime t0 = start + sim::Seconds(100);  // on the grid
    EXPECT_LT(bed.sim.Now(), t0);
    co_await bed.sim.WaitUntil(t0 + sim::Millis(500));
    sup.Pause();
    b->engine->MarkCrashed("node lost power");

    // The loop ticks through the outage (t0 + 1, 2, 3 s) doing nothing.
    co_await bed.sim.WaitUntil(t0 + sim::Millis(3200));
    EXPECT_EQ(sup.passes(), 3u);
    EXPECT_EQ(b->engine->state(), engine::BackendState::kCrashed);
    sup.Resume();

    const sim::SimTime tick = t0 + sim::Seconds(4);
    co_await bed.sim.WaitUntil(JustBefore(tick));
    EXPECT_EQ(b->engine->state(), engine::BackendState::kCrashed);
    co_await bed.sim.WaitUntil(tick);
    EXPECT_EQ(sup.passes(), 4u);
    EXPECT_EQ(b->engine->state(), engine::BackendState::kInitializing);
    serve.Shutdown();
  });
  EXPECT_EQ(serve.metrics().recoveries, 1u);
}

TEST(EngineSupervisorTimingTest, QuarantineReprobesFollowTheBreakerCooldown) {
  TestBed bed;
  SwapServe serve(bed.sim, QuarantineConfig(bed, 10.0), bed.catalog,
                  bed.hardware());
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    const sim::SimTime start = bed.sim.Now();
    EngineSupervisor& sup = *serve.supervisor();
    EXPECT_TRUE((co_await serve.ChatAndWait(kModel, 64, 16)).ok);
    Backend* b = serve.backend(kModel);
    const fault::FaultInjector& faults = serve.fault_injector();
    serve.fault_injector().Configure(OneRule(RestartFails()));

    const sim::SimTime t0 = start + sim::Seconds(100);  // on the grid
    EXPECT_LT(bed.sim.Now(), t0);
    co_await bed.sim.WaitUntil(t0 + sim::Millis(2500));
    b->engine->MarkCrashed("test-induced crash");
    // The t0 + 3 s tick restarts, fails and quarantines: the breaker opens.
    // (Events this coroutine schedules between a crash and the loop's wake
    // may precede a same-instant scan, so step to each tick from 1 ns out.)
    co_await bed.sim.WaitUntil(JustBefore(t0 + sim::Seconds(3)));
    co_await bed.sim.WaitUntil(t0 + sim::Seconds(3));
    EXPECT_EQ(faults.fires("engine.restart"), 1u);
    EXPECT_EQ(b->health.state, BackendHealth::State::kQuarantined);
    const std::uint64_t quarantined_at = sup.passes();

    // Re-probes land exactly one cooldown apart, on the 1 s grid, and the
    // loop keeps ticking once per second in between.
    for (int probe = 1; probe <= 2; ++probe) {
      const sim::SimTime due = t0 + sim::Seconds(3 + 10 * probe);
      co_await bed.sim.WaitUntil(JustBefore(due));
      EXPECT_EQ(faults.fires("engine.restart"), std::uint64_t(probe));
      co_await bed.sim.WaitUntil(due);
      EXPECT_EQ(faults.fires("engine.restart"), std::uint64_t(probe) + 1);
      EXPECT_EQ(sup.passes(), quarantined_at + 10 * probe);
    }

    // Healthy again, the probe at t0 + 33 s brings it back; the loop parks.
    serve.fault_injector().Configure({});
    co_await bed.sim.Delay(sim::Minutes(2));
    EXPECT_EQ(b->engine->state(), engine::BackendState::kRunning);
    const std::uint64_t parked = sup.passes();
    co_await bed.sim.Delay(sim::Minutes(2));
    EXPECT_EQ(sup.passes(), parked);
    serve.Shutdown();
  });
  EXPECT_EQ(serve.metrics().quarantines, 3u);
  EXPECT_EQ(serve.metrics().recoveries, 1u);
}

TEST(EngineSupervisorTimingTest, FailedColdFallbackRestartIsPickedUpNextTick) {
  TestBed bed;
  SwapServe serve(bed.sim, bed.MakeConfig({{kModel, "ollama"}}),
                  bed.catalog, bed.hardware());
  ChatResult result;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    const sim::SimTime start = bed.sim.Now();
    EngineSupervisor& sup = *serve.supervisor();
    Backend* b = serve.backend(kModel);
    EXPECT_EQ(b->engine->state(), engine::BackendState::kSwappedOut);

    // The snapshot is corrupt, so the swap-in falls back to a cold
    // restart; that restart wedges for 2.3 s, fails, and leaves the
    // backend kCrashed long after the fallback's own crash woke the loop.
    EXPECT_TRUE(serve.snapshot_store().Corrupt(b->snapshot).ok());
    fault::FaultRule rule = RestartFails();
    rule.max_fires = 1;
    rule.stall_s = 2.3;
    serve.fault_injector().Configure(OneRule(rule));
    const sim::SimTime t0 = start + sim::Seconds(100);  // on the grid
    co_await bed.sim.WaitUntil(t0 + sim::Millis(500));
    sim::Spawn([&]() -> sim::Task<> {
      result = co_await serve.ChatAndWait(kModel, 64, 16);
    });
    // The restore fails its checksum before moving a byte.
    co_await serve.controller().crash_signal().Wait();
    EXPECT_EQ(bed.sim.Now(), t0 + sim::Millis(500));
    EXPECT_EQ(b->engine->state(), engine::BackendState::kInitializing);
    co_await bed.sim.WaitUntil(t0 + sim::Millis(2800));
    EXPECT_EQ(serve.fault_injector().fires("engine.restart"), 1u);
    EXPECT_EQ(b->engine->state(), engine::BackendState::kCrashed);
    EXPECT_EQ(sup.passes(), 0u);

    const sim::SimTime tick = t0 + sim::Seconds(3);
    co_await bed.sim.WaitUntil(JustBefore(tick));
    EXPECT_EQ(b->engine->state(), engine::BackendState::kCrashed);
    co_await bed.sim.WaitUntil(tick);
    EXPECT_EQ(sup.passes(), 1u);
    EXPECT_EQ(b->health.state, BackendHealth::State::kRecovering);
    co_await bed.sim.Delay(sim::Minutes(5));
    serve.Shutdown();
  });
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(serve.metrics().recoveries, 1u);
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
  SwapServe serve(bed.sim, QuarantineConfig(bed, 1000.0), bed.catalog,
                  bed.hardware());
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    EXPECT_TRUE((co_await serve.ChatAndWait(kModel, 64, 16)).ok);
    EngineSupervisor& sup = *serve.supervisor();
    serve.fault_injector().Configure(OneRule(RestartFails()));
    serve.backend(kModel)->engine->MarkCrashed("test-induced crash");
    co_await bed.sim.Delay(sim::Seconds(5));
    EXPECT_EQ(serve.backend(kModel)->health.state,
              BackendHealth::State::kQuarantined);

    // The old loop is asleep toward its next tick when the new one starts.
    co_await bed.sim.Delay(sim::Millis(400));
    sup.Stop();
    sup.Start();
    const std::uint64_t before = sup.passes();
    co_await bed.sim.Delay(sim::Millis(10500));
    EXPECT_EQ(sup.passes() - before, 10u);
    serve.Shutdown();
  });
}

TEST(EngineSupervisorTest, StopReleasesAParkedLoop) {
  TestBed bed;
  SwapServe serve(bed.sim, bed.MakeConfig({{kModel, "ollama"}}),
                  bed.catalog, bed.hardware());
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    co_await bed.sim.Delay(sim::Hours(1));
    EXPECT_EQ(serve.controller().crash_signal().waiting(), 1u);
    serve.Shutdown();
    EXPECT_EQ(serve.controller().crash_signal().waiting(), 0u);
  });
  EXPECT_EQ(serve.controller().crash_signal().waiting(), 0u);
}

// Tier-1 guard against idle polling coming back: an idle system with the
// supervisor on schedules (almost) no more events than one with it off.
TEST(EngineSupervisorTest, IdleSupervisorSchedulesNoEvents) {
  std::uint64_t events[2] = {0, 0};
  for (const int interval_s : {0, 1}) {
    TestBed bed;
    Config cfg = bed.MakeConfig({{kModel, "ollama"}});
    cfg.recovery.health_check_interval_s = interval_s;
    SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
    bed.RunTask([&]() -> sim::Task<> {
      EXPECT_TRUE((co_await serve.Initialize()).ok());
      EXPECT_EQ(serve.supervisor() != nullptr, interval_s > 0);
      co_await bed.sim.Delay(sim::Days(30));
      serve.Shutdown();
    });
    events[interval_s] = bed.sim.processed_events();
  }
  const std::uint64_t gap =
      events[1] > events[0] ? events[1] - events[0] : events[0] - events[1];
  EXPECT_LT(gap, 100u) << "off: " << events[0] << " on: " << events[1];
}

}  // namespace
}  // namespace swapserve::core
