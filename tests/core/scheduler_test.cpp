// Crash recovery through the scheduler: a crashed backend is restored on
// its next request behind a reservation of its full footprint, exactly
// like a swapped-out one — victim preemption, retry/backoff and the
// circuit breaker included. Nothing restarts it in the background.

#include "core/scheduler.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "core/swap_serve.h"
#include "fixture.h"

namespace swapserve::core {
namespace {

using testing::TestBed;

constexpr const char* kModel = "llama-3.2-1b-fp16";

fault::FaultPlan RestartFails(std::int64_t max_fires = -1) {
  fault::FaultRule rule;
  rule.point = "engine.restart";
  rule.probability = 1.0;
  rule.code = StatusCode::kInternal;
  rule.message = "node wedged";
  rule.max_fires = max_fires;
  fault::FaultPlan plan;
  plan.rules.push_back(std::move(rule));
  return plan;
}

TEST(SchedulerCrashRecoveryTest, CrashedBackendIsRestoredOnItsNextRequest) {
  TestBed bed;
  SwapServe serve(bed.sim, bed.MakeConfig({{kModel, "ollama"}}),
                  bed.catalog, bed.hardware());
  ChatResult after;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    EXPECT_TRUE((co_await serve.ChatAndWait(kModel, 128, 32)).ok);
    Backend* b = serve.backend(kModel);
    b->engine->MarkCrashed("test-induced crash");
    EXPECT_EQ(bed.gpus[0]->used().count(), 0);  // crash freed the device

    // Nobody restarts it in the background: it waits for demand.
    co_await bed.sim.Delay(sim::Minutes(5));
    EXPECT_EQ(b->engine->state(), engine::BackendState::kCrashed);
    EXPECT_EQ(serve.metrics().recoveries, 0u);
    after = co_await serve.ChatAndWait(kModel, 128, 32);
    EXPECT_EQ(b->engine->state(), engine::BackendState::kRunning);
    serve.Shutdown();
  });
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_GT(after.swap_wait_s, 0.0);  // the request paid for the restart
  EXPECT_EQ(serve.metrics().recoveries, 1u);
  EXPECT_EQ(serve.metrics().quarantines, 0u);
  EXPECT_EQ(serve.backend(kModel)->breaker.state(),
            fault::CircuitBreaker::State::kClosed);
}

TEST(SchedulerCrashRecoveryTest, RequestsSurviveACrashViaRequeue) {
  TestBed bed;
  SwapServe serve(bed.sim, bed.MakeConfig({{kModel, "ollama"}}),
                  bed.catalog, bed.hardware());
  ChatResult result;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    EXPECT_TRUE((co_await serve.ChatAndWait(kModel, 64, 16)).ok);
    // The engine dies at the entry of the next request: the request is
    // requeued, and its retry restores the backend.
    fault::FaultRule rule;
    rule.point = "engine.crash";
    rule.probability = 1.0;
    rule.max_fires = 1;
    fault::FaultPlan plan;
    plan.rules.push_back(std::move(rule));
    serve.fault_injector().Configure(std::move(plan));
    result = co_await serve.ChatAndWait(kModel, 128, 32);
    serve.Shutdown();
  });
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(serve.fault_injector().fires("engine.crash"), 1u);
  EXPECT_EQ(serve.metrics().requeues, 1u);
  EXPECT_EQ(serve.metrics().recoveries, 1u);
  EXPECT_EQ(serve.metrics().TotalFailed(), 0u);
}

fault::FaultPlan HangOnce(double stall_s) {
  fault::FaultRule rule;
  rule.point = "engine.hang";
  rule.probability = 1.0;
  rule.stall_s = stall_s;
  rule.fail = false;
  rule.max_fires = 1;
  fault::FaultPlan plan;
  plan.rules.push_back(std::move(rule));
  return plan;
}

// A hang is a stall that ends on its own: the request is late by exactly
// the stall and nothing crashes, requeues or restores.
TEST(SchedulerCrashRecoveryTest, HangDelaysTheRequestByTheStall) {
  TestBed bed;
  SwapServe serve(bed.sim, bed.MakeConfig({{kModel, "ollama"}}),
                  bed.catalog, bed.hardware());
  ChatResult hung;
  sim::SimDuration plain;
  sim::SimDuration stalled;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    EXPECT_TRUE((co_await serve.ChatAndWait(kModel, 64, 16)).ok);
    sim::SimTime t0 = bed.sim.Now();
    EXPECT_TRUE((co_await serve.ChatAndWait(kModel, 128, 32)).ok);
    plain = bed.sim.Now() - t0;
    serve.fault_injector().Configure(HangOnce(60.0));
    t0 = bed.sim.Now();
    hung = co_await serve.ChatAndWait(kModel, 128, 32);
    stalled = bed.sim.Now() - t0;
    serve.Shutdown();
  });
  ASSERT_TRUE(hung.ok) << hung.error;
  EXPECT_EQ(serve.fault_injector().fires("engine.hang"), 1u);
  EXPECT_NEAR((stalled - plain).ToSeconds(), 60.0, 1e-6);
  EXPECT_EQ(serve.metrics().requeues, 0u);
  EXPECT_EQ(serve.metrics().recoveries, 0u);
  EXPECT_EQ(serve.backend(kModel)->engine->crash_count(), 0u);
}

// A crash while a request is stalled: the epoch guard fails the stalled
// attempt when it resumes, and the requeued retry restores the backend.
TEST(SchedulerCrashRecoveryTest, CrashDuringAHangFailsTheAttemptThenRestores) {
  TestBed bed;
  SwapServe serve(bed.sim, bed.MakeConfig({{kModel, "ollama"}}),
                  bed.catalog, bed.hardware());
  ChatResult result;
  sim::SimTime done;
  sim::SimTime hung_at;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    EXPECT_TRUE((co_await serve.ChatAndWait(kModel, 64, 16)).ok);
    Backend* b = serve.backend(kModel);
    serve.fault_injector().Configure(HangOnce(60.0));
    hung_at = bed.sim.Now();
    sim::Spawn([&]() -> sim::Task<> {
      result = co_await serve.ChatAndWait(kModel, 128, 32);
      done = bed.sim.Now();
    });
    co_await bed.sim.Delay(sim::Seconds(1));
    EXPECT_EQ(b->engine->active_requests(), 1);
    b->engine->MarkCrashed("test-induced crash mid-hang");
    const std::int64_t busy_ns = bed.gpus[0]->TotalBusy().ns();
    co_await bed.sim.WaitUntil(hung_at + sim::Millis(59990));
    EXPECT_EQ(serve.metrics().requeues, 0u);
    // The attempt fails as the stall ends, before it computes anything on
    // the dead engine's GPU; its requeue then waits out a backoff.
    co_await bed.sim.WaitUntil(hung_at + sim::Millis(60010));
    EXPECT_EQ(serve.metrics().requeues, 1u);
    EXPECT_EQ(bed.gpus[0]->TotalBusy().ns(), busy_ns);
    EXPECT_EQ(b->engine->state(), engine::BackendState::kCrashed);
    co_await bed.sim.Delay(sim::Minutes(2));
    EXPECT_EQ(b->engine->state(), engine::BackendState::kRunning);
    serve.Shutdown();
  });
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GE((done - hung_at).ToSeconds(), 60.0);
  EXPECT_EQ(serve.fault_injector().fires("engine.hang"), 1u);
  EXPECT_EQ(serve.backend(kModel)->engine->crash_count(), 1u);
  EXPECT_EQ(serve.metrics().requeues, 1u);
  EXPECT_EQ(serve.metrics().recoveries, 1u);
  EXPECT_EQ(serve.metrics().TotalFailed(), 0u);
}

// One H100, two vLLM backends that cannot share it (each claims ~72 GB).
// A crashes while resident, B swaps in and takes the GPU, then A is asked
// for: A's restore must preempt B like any swap-in would, instead of
// restarting into memory B holds.
TEST(SchedulerCrashRecoveryTest, CrashedBackendPreemptsTheGpuHolder) {
  constexpr const char* kA = "llama-3.2-3b-fp16";
  constexpr const char* kB = "llama-3.2-1b-fp16";
  TestBed bed;
  SwapServe serve(bed.sim, bed.MakeConfig({{kA, "vllm"}, {kB, "vllm"}}),
                  bed.catalog, bed.hardware());
  ChatResult a_again;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    EXPECT_TRUE((co_await serve.ChatAndWait(kA, 128, 32)).ok);
    Backend* a = serve.backend(kA);
    Backend* b = serve.backend(kB);
    a->engine->MarkCrashed("test-induced crash");
    EXPECT_TRUE((co_await serve.ChatAndWait(kB, 128, 32)).ok);
    EXPECT_EQ(b->engine->state(), engine::BackendState::kRunning);
    co_await bed.sim.Delay(sim::Seconds(30));

    a_again = co_await serve.ChatAndWait(kA, 128, 32);
    EXPECT_EQ(a->engine->state(), engine::BackendState::kRunning);
    EXPECT_EQ(b->engine->state(), engine::BackendState::kSwappedOut);
    serve.Shutdown();
  });
  ASSERT_TRUE(a_again.ok) << a_again.error;
  EXPECT_EQ(serve.metrics().quarantines, 0u);
  EXPECT_EQ(serve.metrics().recoveries, 1u);
  EXPECT_EQ(serve.metrics().preemptions, 1u);
  EXPECT_EQ(serve.metrics().TotalFailed(), 0u);
}

// Restores that keep failing ride the scheduler's retry/backoff, trip the
// breaker at its threshold, fast-fail while it cools down, and the single
// half-open probe brings the backend back once the fault clears.
TEST(SchedulerCrashRecoveryTest, FailedRestoresTripTheBreakerThenProbeHeals) {
  TestBed bed;
  Config cfg = bed.MakeConfig({{kModel, "ollama"}});
  cfg.recovery.breaker_cooldown_s = 30.0;
  SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    EXPECT_TRUE((co_await serve.ChatAndWait(kModel, 64, 16)).ok);
    Backend* b = serve.backend(kModel);
    const fault::FaultInjector& faults = serve.fault_injector();
    serve.fault_injector().Configure(RestartFails());
    b->engine->MarkCrashed("test-induced crash");

    // Three scheduler calls (the request and its two requeues), each with
    // three restore attempts: the third terminal failure trips the breaker.
    ChatResult failed = co_await serve.ChatAndWait(kModel, 64, 16);
    EXPECT_FALSE(failed.ok);
    EXPECT_EQ(faults.fires("engine.restart"), 9u);
    EXPECT_EQ(serve.metrics().swap_retries, 6u);
    EXPECT_EQ(serve.metrics().quarantines, 1u);
    EXPECT_TRUE(b->breaker.CoolingDown());

    // Quarantined: fast-fails without touching the engine.
    ChatResult during = co_await serve.ChatAndWait(kModel, 64, 16);
    EXPECT_FALSE(during.ok);
    EXPECT_EQ(faults.fires("engine.restart"), 9u);

    // The fault clears; after the cooldown one probe restores the backend.
    serve.fault_injector().Configure({});
    co_await bed.sim.Delay(sim::Seconds(30));
    EXPECT_FALSE(b->breaker.CoolingDown());
    ChatResult probe = co_await serve.ChatAndWait(kModel, 64, 16);
    EXPECT_TRUE(probe.ok) << probe.error;
    EXPECT_EQ(b->breaker.state(),
              fault::CircuitBreaker::State::kClosed);
    EXPECT_EQ(b->engine->state(), engine::BackendState::kRunning);
    serve.Shutdown();
  });
  EXPECT_EQ(serve.metrics().quarantines, 1u);
  EXPECT_EQ(serve.metrics().recoveries, 1u);
}

// A corrupt snapshot is dropped and the engine restarts from scratch under
// the swap-in's reservation; a failed restart is retried by the scheduler.
TEST(SchedulerCrashRecoveryTest, CorruptSnapshotRestartsUnderTheReservation) {
  TestBed bed;
  SwapServe serve(bed.sim, bed.MakeConfig({{kModel, "ollama"}}),
                  bed.catalog, bed.hardware());
  ChatResult result;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    Backend* b = serve.backend(kModel);
    EXPECT_EQ(b->engine->state(), engine::BackendState::kSwappedOut);
    EXPECT_TRUE(serve.snapshot_store().Corrupt(b->snapshot).ok());
    serve.fault_injector().Configure(RestartFails(/*max_fires=*/1));
    result = co_await serve.ChatAndWait(kModel, 64, 16);
    EXPECT_FALSE(b->has_snapshot);
    serve.Shutdown();
  });
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(serve.fault_injector().fires("engine.restart"), 1u);
  EXPECT_EQ(serve.metrics().swap_retries, 1u);
  EXPECT_EQ(serve.metrics().recoveries, 1u);
  EXPECT_EQ(serve.metrics().quarantines, 0u);
}

// A crash that lands mid-restore leaves the checkpoint intact: the retry
// restores from it (the crashed backend is swapped out again) instead of
// restarting the engine from scratch.
TEST(SchedulerCrashRecoveryTest, CrashMidRestoreRestoresFromTheSnapshot) {
  TestBed bed;
  SwapServe serve(bed.sim, bed.MakeConfig({{kModel, "ollama"}}),
                  bed.catalog, bed.hardware());
  ChatResult result;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    Backend* b = serve.backend(kModel);
    EXPECT_EQ(b->engine->state(), engine::BackendState::kSwappedOut);
    sim::Spawn([&]() -> sim::Task<> {
      result = co_await serve.ChatAndWait(kModel, 64, 16);
    });
    co_await bed.sim.Delay(sim::Millis(100));
    EXPECT_EQ(b->engine->state(), engine::BackendState::kSwapping);
    b->engine->MarkCrashed("test-induced crash mid-restore");
    co_await bed.sim.Delay(sim::Minutes(1));
    serve.Shutdown();
  });
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(serve.backend(kModel)->engine->crash_count(), 1u);
  EXPECT_EQ(serve.metrics().recoveries, 0u);  // no restart from scratch
  EXPECT_EQ(serve.metrics().swap_retries, 1u);
  EXPECT_EQ(serve.metrics().swap_ins, 1u);
}

}  // namespace
}  // namespace swapserve::core
