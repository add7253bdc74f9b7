// Preemption policy and swap-operation tests for the engine controller.

#include "core/engine_controller.h"

#include <gtest/gtest.h>

#include "ckpt/snapshot_tier.h"
#include "core/scheduler.h"
#include "engine/factory.h"
#include "fixture.h"
#include "sim/combinators.h"

namespace swapserve::core {
namespace {

using testing::TestBed;

// Builds backends directly (without the SwapServe facade) so tests control
// every field.
struct ControllerBed {
  explicit ControllerBed(TestBed& bed)
      : metrics(),
        store(GiB(256)),
        tier(bed.sim, store, bed.storage, {}),
        ckpt(bed.sim, store, tier),
        tm(bed.sim, {bed.gpus[0].get()}),
        controller(bed.sim, ckpt, tm, metrics) {
    tm.set_delegate(&controller);
  }

  std::unique_ptr<Backend> MakeBackend(TestBed& bed,
                                       const std::string& model_id,
                                       const std::string& engine) {
    ModelEntry entry;
    entry.model_id = model_id;
    entry.engine = engine;
    model::ModelSpec spec = bed.catalog.Find(model_id).value();
    engine::EngineEnv env{.sim = &bed.sim,
                          .gpu = bed.gpus[0].get(),
                          .storage = &bed.storage,
                          .runtime = &bed.runtime,
                          .tp_group = {}};
    auto backend = std::make_unique<Backend>(
        bed.sim, entry, spec,
        engine::CreateEngine(engine::ParseEngineKind(engine).value(), env,
                             spec, engine::EngineOptions{}, model_id),
        16, RecoveryConfig{});
    controller.RegisterBackend(backend.get());
    return backend;
  }

  Metrics metrics;
  ckpt::SnapshotStore store;
  ckpt::SnapshotTierManager tier;
  ckpt::CheckpointEngine ckpt;
  TaskManager tm;
  EngineController controller;
};

TEST(EngineControllerTest, SwapOutThenInRoundTrip) {
  TestBed bed;
  ControllerBed cb(bed);
  auto backend = cb.MakeBackend(bed, "llama-3.2-1b-fp16", "ollama");
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await backend->engine->ColdStart()).ok());
    const Bytes resident = backend->engine->GpuResidentBytes();

    EXPECT_TRUE((co_await cb.controller.SwapOut(*backend, false)).ok());
    EXPECT_EQ(backend->engine->state(), engine::BackendState::kSwappedOut);
    EXPECT_TRUE(backend->has_snapshot);
    EXPECT_EQ(backend->resident_bytes, resident);
    EXPECT_EQ(bed.gpus[0]->used(), Bytes(0));

    EXPECT_TRUE((co_await cb.controller.SwapIn(*backend)).ok());
    EXPECT_EQ(backend->engine->state(), engine::BackendState::kRunning);
    EXPECT_FALSE(backend->has_snapshot);
    EXPECT_EQ(bed.gpus[0]->used(), resident);
  });
  EXPECT_EQ(cb.metrics.swap_outs, 1u);
  EXPECT_EQ(cb.metrics.swap_ins, 1u);
  EXPECT_EQ(cb.metrics.preemptions, 0u);
}

TEST(EngineControllerTest, SwapOutIdempotentWhenAlreadyOut) {
  TestBed bed;
  ControllerBed cb(bed);
  auto backend = cb.MakeBackend(bed, "llama-3.2-1b-fp16", "ollama");
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await backend->engine->ColdStart()).ok());
    EXPECT_TRUE((co_await cb.controller.SwapOut(*backend, false)).ok());
    // Second swap-out: no-op, still OK.
    EXPECT_TRUE((co_await cb.controller.SwapOut(*backend, false)).ok());
  });
  EXPECT_EQ(cb.metrics.swap_outs, 1u);
}

TEST(EngineControllerTest, SwapInWithoutSnapshotFails) {
  TestBed bed;
  ControllerBed cb(bed);
  auto backend = cb.MakeBackend(bed, "llama-3.2-1b-fp16", "ollama");
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await backend->engine->ColdStart()).ok());
    // Force the illegal combination.
    SWAP_CHECK(backend->engine->MarkSwapping().ok());
    SWAP_CHECK(backend->engine->MarkSwappedOut().ok());
    Status s = co_await cb.controller.SwapIn(*backend);
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  });
}

TEST(EngineControllerTest, SwapOutWaitsForInflightRequests) {
  TestBed bed;
  ControllerBed cb(bed);
  auto backend = cb.MakeBackend(bed, "deepseek-r1-7b-fp16", "ollama");
  double generate_done = -1;
  double swap_done = -1;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await backend->engine->ColdStart()).ok());
    // A relay-like holder: generates under a shared guard.
    sim::Spawn([&]() -> sim::Task<> {
      auto shared = co_await backend->lock.AcquireShared();
      Result<engine::GenerationResult> r =
          co_await backend->engine->Generate(
              engine::GenerationRequest{.prompt_tokens = 2048,
                                        .output_tokens = 512});
      EXPECT_TRUE(r.ok());
      generate_done = bed.sim.Now().ToSeconds();
    });
    co_await bed.sim.Delay(sim::Millis(100));
    EXPECT_TRUE((co_await cb.controller.SwapOut(*backend, true)).ok());
    swap_done = bed.sim.Now().ToSeconds();
  });
  EXPECT_GT(generate_done, 0);
  EXPECT_GT(swap_done, generate_done);  // write-lock drained the reader
}

TEST(PreemptionPolicyTest, DemandAwareOrdersByQueueThenLru) {
  TestBed bed;
  ControllerBed cb(bed);
  auto idle_old = cb.MakeBackend(bed, "llama-3.2-1b-fp16", "ollama");
  auto idle_new = cb.MakeBackend(bed, "llama-3.2-3b-fp16", "ollama");
  auto busy = cb.MakeBackend(bed, "deepseek-r1-7b-fp16", "ollama");
  bed.RunTask([&]() -> sim::Task<> {
    for (Backend* b : {idle_old.get(), idle_new.get(), busy.get()}) {
      EXPECT_TRUE((co_await b->engine->ColdStart()).ok());
    }
    idle_old->last_accessed = sim::SimTime(0) + sim::Seconds(10);
    idle_new->last_accessed = sim::SimTime(0) + sim::Seconds(100);
    busy->last_accessed = sim::SimTime(0) + sim::Seconds(1);  // oldest...
    // ...but busy: queue one request.
    SWAP_CHECK(busy->queue->TrySend(QueuedRequest{}));

    auto order = cb.controller.PreemptionCandidates(0, "requester");
    EXPECT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], idle_old.get());  // demand 0, oldest access
    EXPECT_EQ(order[1], idle_new.get());  // demand 0, newer
    EXPECT_EQ(order[2], busy.get());      // demand 1 despite oldest LRU
  });
}

TEST(PreemptionPolicyTest, ExcludesRequesterSwappedAndLocked) {
  TestBed bed;
  ControllerBed cb(bed);
  auto a = cb.MakeBackend(bed, "llama-3.2-1b-fp16", "ollama");
  auto b = cb.MakeBackend(bed, "llama-3.2-3b-fp16", "ollama");
  auto c = cb.MakeBackend(bed, "deepseek-r1-7b-fp16", "ollama");
  bed.RunTask([&]() -> sim::Task<> {
    for (Backend* x : {a.get(), b.get(), c.get()}) {
      EXPECT_TRUE((co_await x->engine->ColdStart()).ok());
    }
    // b: swapped out; c: write-locked.
    EXPECT_TRUE((co_await cb.controller.SwapOut(*b, false)).ok());
    auto guard = co_await c->lock.AcquireExclusive();
    auto candidates =
        cb.controller.PreemptionCandidates(0, /*requester=*/a->name());
    EXPECT_TRUE(candidates.empty());  // a is requester, b out, c locked
    auto candidates2 = cb.controller.PreemptionCandidates(0, "other");
    EXPECT_EQ(candidates2.size(), 1u);
    EXPECT_EQ(candidates2[0], a.get());
  });
}

TEST(PreemptionPolicyTest, LargestFirstOrdersByResidentBytes) {
  TestBed bed;
  ControllerBed cb(bed);
  EngineController largest(bed.sim, cb.ckpt, cb.tm, cb.metrics,
                           PreemptionPolicy::kLargestFirst);
  auto small = cb.MakeBackend(bed, "llama-3.2-1b-fp16", "ollama");
  auto big = cb.MakeBackend(bed, "deepseek-r1-14b-fp16", "ollama");
  largest.RegisterBackend(small.get());
  largest.RegisterBackend(big.get());
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await small->engine->ColdStart()).ok());
    EXPECT_TRUE((co_await big->engine->ColdStart()).ok());
    auto order = largest.PreemptionCandidates(0, "x");
    EXPECT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], big.get());
  });
}

TEST(PreemptionPolicyTest, ReclaimEvictsUntilSatisfied) {
  TestBed bed;
  ControllerBed cb(bed);
  auto a = cb.MakeBackend(bed, "llama-3.2-1b-fp16", "ollama");   // ~3.7 GiB
  auto b = cb.MakeBackend(bed, "llama-3.2-3b-fp16", "ollama");   // ~7.5 GiB
  auto c = cb.MakeBackend(bed, "deepseek-r1-7b-fp16", "ollama"); // ~16 GiB
  bed.RunTask([&]() -> sim::Task<> {
    for (Backend* x : {a.get(), b.get(), c.get()}) {
      EXPECT_TRUE((co_await x->engine->ColdStart()).ok());
    }
    a->last_accessed = sim::SimTime(1);
    b->last_accessed = sim::SimTime(2);
    c->last_accessed = sim::SimTime(3);
    // Need 10 GiB: evicting a (3.7) is not enough; b (7.5) follows.
    Bytes freed = co_await cb.controller.ReclaimMemory(0, GiB(10), "req");
    EXPECT_GE(freed, GiB(10));
    EXPECT_EQ(a->engine->state(), engine::BackendState::kSwappedOut);
    EXPECT_EQ(b->engine->state(), engine::BackendState::kSwappedOut);
    EXPECT_EQ(c->engine->state(), engine::BackendState::kRunning);
  });
  EXPECT_EQ(cb.metrics.preemptions, 2u);
}

TEST(PreemptionPolicyTest, ReclaimStopsWhenNoCandidates) {
  TestBed bed;
  ControllerBed cb(bed);
  auto a = cb.MakeBackend(bed, "llama-3.2-1b-fp16", "ollama");
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await a->engine->ColdStart()).ok());
    Bytes freed =
        co_await cb.controller.ReclaimMemory(0, GiB(40), a->name());
    EXPECT_EQ(freed, Bytes(0));  // only candidate is the requester itself
  });
}

TEST(PreemptionPolicyTest, PolicyNames) {
  EXPECT_EQ(PreemptionPolicyName(PreemptionPolicy::kDemandAware),
            "demand-aware");
  EXPECT_EQ(PreemptionPolicyName(PreemptionPolicy::kLruOnly), "lru-only");
  EXPECT_EQ(PreemptionPolicyName(PreemptionPolicy::kRandom), "random");
  EXPECT_EQ(PreemptionPolicyName(PreemptionPolicy::kLargestFirst),
            "largest-first");
}

}  // namespace
}  // namespace swapserve::core
