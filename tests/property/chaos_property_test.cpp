// Chaos suite: random seeded fault schedules pushed through the full
// end-to-end simulation, checked against the self-healing invariants:
//   - every accepted request reaches exactly one terminal outcome
//     (Done or Error) — faults may fail requests but never lose them;
//   - no reservation leaks: after the run the task manager is fully
//     drained on every GPU;
//   - the GPU allocator balances: used bytes equal the sum of resident
//     backends' footprints, and nothing is owned by crashed backends;
//   - a backend quarantined at the end (breaker open and cooling down) is
//     not serving, and every backend settles running, parked on a snapshot
//     or crashed — and, faults cleared, every one serves a request again
//     (crashed ones restored on demand);
//   - identical seeds give identical outcomes (chaos is reproducible).
//
// Labeled `chaos`: `scripts/check.sh asan -L chaos` and
// `scripts/check.sh tsan -L chaos` run this binary under both sanitizers.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "../core/fixture.h"
#include "ckpt/snapshot_tier.h"
#include "core/swap_serve.h"
#include "fault/fault_injector.h"
#include "sim/random.h"

namespace swapserve::core {
namespace {

using testing::TestBed;

// Same over-capacity pool as serving_property_test: all six together
// exceed the H100's 80 GB, so the workload constantly swaps — which is
// what routes traffic through the ckpt/hw fault points.
constexpr const char* kPool[] = {
    "llama-3.2-1b-fp16",        "llama-3.2-3b-fp16",
    "deepseek-r1-7b-fp16",      "deepseek-coder-6.7b-fp16",
    "deepseek-r1-14b-fp16",     "gemma-7b-fp16",
};

// All injectable fault points with per-point chaos weights. Probabilities
// stay low enough that retry budgets usually cover the fault, but high
// enough that every recovery path fires across 100 seeds.
fault::FaultPlan RandomPlan(sim::Rng& rng) {
  struct PointSpec {
    const char* point;
    double max_probability;
    bool fail;        // stall-only points set this false
    double stall_s;   // stall attached to the rule (0 = none)
  };
  static constexpr PointSpec kPoints[] = {
      {"ckpt.swap_out", 0.08, true, 0},
      {"ckpt.swap_in", 0.15, true, 0},
      {"snapshot.corrupt", 0.10, true, 0},
      {"storage.promote", 0.15, true, 0},
      {"storage.read", 0.10, true, 0},
      {"hw.acquire", 0.05, true, 0},
      {"hw.link", 0.10, false, 2.0},
      {"engine.crash", 0.06, true, 0},
      {"engine.hang", 0.04, false, 45.0},
      {"engine.restart", 0.20, true, 0},
  };
  fault::FaultPlan plan;
  for (const PointSpec& spec : kPoints) {
    if (!rng.Bernoulli(0.6)) continue;  // each point armed ~60% of runs
    fault::FaultRule rule;
    rule.point = spec.point;
    rule.probability = rng.Uniform(0.01, spec.max_probability);
    rule.fail = spec.fail;
    rule.stall_s = spec.stall_s > 0 ? rng.Uniform(0.5, spec.stall_s) : 0.0;
    rule.code = rng.Bernoulli(0.5) ? StatusCode::kUnavailable
                                   : StatusCode::kInternal;
    plan.rules.push_back(std::move(rule));
  }
  return plan;
}

struct ChaosOutcome {
  std::uint64_t accepted = 0;
  std::uint64_t terminal_done = 0;
  std::uint64_t terminal_error = 0;
  std::uint64_t rejected = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t quarantines = 0;

  bool operator==(const ChaosOutcome&) const = default;
};

ChaosOutcome RunChaosWorkload(std::uint64_t seed, int n_models,
                              int n_requests) {
  TestBed bed;
  sim::Rng rng(seed);
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < n_models; ++i) entries.push_back({kPool[i], "ollama"});
  Config cfg = bed.MakeConfig(entries);
  cfg.global.queue_capacity = 16;
  cfg.fault.seed = seed;
  // Odd seeds run with a bounded host cache + prefetch, so the storage
  // fault points and tier eviction races see real chaos traffic; even
  // seeds keep the legacy unbounded store.
  if (seed % 2 == 1) {
    cfg.global.host_cache_mib = 40.0 * 1024;
    cfg.global.snapshot_prefetch = true;
  }
  SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());

  ChaosOutcome out;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    // Arm the plan only after init: startup is not the failure domain under
    // test, and a cold-start fault would fail the whole run, not a request.
    fault::FaultPlan plan = RandomPlan(rng);
    serve.fault_injector().Configure(std::move(plan));

    for (int i = 0; i < n_requests; ++i) {
      co_await bed.sim.Delay(sim::Seconds(rng.Exponential(0.4)));
      InferenceRequest req;
      req.model = kPool[rng.UniformInt(0, n_models - 1)];
      req.prompt_tokens = rng.UniformInt(8, 1024);
      req.max_tokens = rng.UniformInt(1, 128);
      Result<ResponseChannelPtr> ch = serve.handler().Accept(req);
      if (!ch.ok()) {
        ++out.rejected;
        continue;
      }
      ++out.accepted;
      sim::Spawn([&out, channel = *ch]() -> sim::Task<> {
        int terminals = 0;
        while (auto chunk = co_await channel->Recv()) {
          if (chunk->kind == ResponseChunk::Kind::kDone) {
            ++terminals;
            ++out.terminal_done;
          }
          if (chunk->kind == ResponseChunk::Kind::kError) {
            ++terminals;
            ++out.terminal_error;
          }
        }
        EXPECT_EQ(terminals, 1);  // exactly one terminal chunk, always
      });
    }
    co_await bed.sim.Delay(sim::Minutes(60));  // drain through recoveries

    // Settled: a quarantined backend (breaker open and cooling down) is
    // not serving, and no backend is stuck mid-transition.
    for (Backend* b : serve.backends()) {
      const engine::BackendState state = b->engine->state();
      if (b->breaker.CoolingDown()) {
        EXPECT_NE(state, engine::BackendState::kRunning)
            << b->name() << " serves while quarantined (seed " << seed << ")";
      }
      EXPECT_TRUE(state == engine::BackendState::kRunning ||
                  state == engine::BackendState::kSwappedOut ||
                  state == engine::BackendState::kCrashed)
          << b->name() << " is " << engine::BackendStateName(state)
          << " after the drain (seed " << seed << ")";
    }
    // Faults cleared, every backend serves again: a crashed one is
    // restored on demand, never left behind.
    out.faults_injected = serve.fault_injector().total_fires();
    serve.fault_injector().Configure({});
    for (int i = 0; i < n_models; ++i) {
      ChatResult r = co_await serve.ChatAndWait(kPool[i], 64, 8);
      ++out.accepted;
      ++(r.ok ? out.terminal_done : out.terminal_error);
      EXPECT_TRUE(r.ok) << kPool[i] << " did not come back: " << r.error
                        << " (seed " << seed << ")";
    }
    serve.Shutdown();
  });

  // --- invariants ---------------------------------------------------------
  const Metrics& m = serve.metrics();
  // Nothing lost: every accepted request is accounted for exactly once.
  EXPECT_EQ(out.accepted,
            m.TotalCompleted() + m.TotalFailed() + m.TotalExpired())
      << "requests lost or double-counted (seed " << seed << ")";
  EXPECT_EQ(out.terminal_done, m.TotalCompleted());
  EXPECT_EQ(out.terminal_done + out.terminal_error, out.accepted);

  // No leaked reservations on any GPU.
  for (std::size_t g = 0; g < bed.gpus.size(); ++g) {
    const auto id = static_cast<hw::GpuId>(g);
    EXPECT_EQ(serve.task_manager().OutstandingReserved(id).count(), 0)
        << "leaked reservation on gpu " << g << " (seed " << seed << ")";
    EXPECT_EQ(serve.task_manager().PendingRequests(id), 0u)
        << "stuck reservation waiter on gpu " << g << " (seed " << seed
        << ")";
  }

  // Allocator balance: device usage equals the resident backends' owned
  // bytes; crashed/swapped-out backends own nothing.
  Bytes resident{0};
  for (Backend* b : serve.backends()) {
    Bytes owned{0};
    for (hw::GpuId id : b->GpuIds()) {
      owned += bed.gpus[static_cast<std::size_t>(id)]->UsedBy(b->owner());
    }
    if (b->engine->state() == engine::BackendState::kRunning) {
      resident += owned;
    } else {
      EXPECT_EQ(owned.count(), 0)
          << b->name() << " is "
          << engine::BackendStateName(b->engine->state())
          << " but still owns device memory (seed " << seed << ")";
    }
  }
  Bytes used{0};
  for (const auto& gpu : bed.gpus) used += gpu->used();
  EXPECT_EQ(used, resident) << "allocator imbalance (seed " << seed << ")";

  // Every run must also drain the tier ledgers: no committed admission
  // bytes, in-flight NVMe moves, or restore pins may survive the run.
  const ckpt::SnapshotTierManager& tier = *serve.tier_manager();
  EXPECT_EQ(tier.committed(), Bytes(0))
      << "leaked admission commitment (seed " << seed << ")";
  EXPECT_EQ(tier.moves_in_flight(), 0)
      << "tier move still in flight after drain (seed " << seed << ")";
  EXPECT_EQ(tier.pinned_count(), 0u)
      << "leaked restore pin (seed " << seed << ")";

  out.recoveries = m.recoveries;
  out.quarantines = m.quarantines;
  return out;
}

class ChaosProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosProperty, InvariantsHoldUnderRandomFaultSchedules) {
  ChaosOutcome out = RunChaosWorkload(GetParam(), 6, 24);
  EXPECT_GT(out.accepted, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ChaosProperty,
    ::testing::Range(std::uint64_t{0}, std::uint64_t{100}));

// Guard against a sweep of quiet runs: a prefix of the seed range must
// inject real faults and drive actual recoveries, otherwise the invariant
// checks above were exercised against a calm system.
TEST(ChaosSweepSummary, RandomPlansActuallyInjectFaults) {
  ChaosOutcome totals;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    ChaosOutcome out = RunChaosWorkload(seed, 6, 24);
    totals.faults_injected += out.faults_injected;
    totals.recoveries += out.recoveries;
    totals.quarantines += out.quarantines;
  }
  EXPECT_GT(totals.faults_injected, 10u);
  EXPECT_GT(totals.recoveries, 0u);
}

TEST(ChaosDeterminismTest, IdenticalSeedsGiveIdenticalChaos) {
  for (std::uint64_t seed : {3ull, 17ull, 59ull}) {
    ChaosOutcome a = RunChaosWorkload(seed, 6, 24);
    ChaosOutcome b = RunChaosWorkload(seed, 6, 24);
    EXPECT_EQ(a, b) << "seed " << seed;
  }
}

// The ISSUE acceptance demo: a sustained ~5% restore-failure rate must not
// cost a single request — swap-in retries absorb every fault — and the tail
// latency stays bounded (faulty run within 3x of fault-free p99).
TEST(ChaosDemoTest, FivePercentRestoreFailureCompletesAllRequests) {
  // Two models that cannot coexist on the 80 GB device: every alternation
  // forces an eviction + restore, so each request rolls the swap-in dice.
  constexpr const char* kLargeA = "llama-3.3-70b-fp8";
  constexpr const char* kLargeB = "deepseek-r1-14b-fp16";
  auto run = [&](double restore_failure_rate) {
    TestBed bed;
    std::vector<std::pair<std::string, std::string>> entries = {
        {kLargeA, "ollama"}, {kLargeB, "ollama"}};
    Config cfg = bed.MakeConfig(entries);
    cfg.fault.seed = 0xdecaf;
    SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
    std::vector<double> latencies;
    bed.RunTask([&]() -> sim::Task<> {
      EXPECT_TRUE((co_await serve.Initialize()).ok());
      if (restore_failure_rate > 0) {
        fault::FaultRule rule;
        rule.point = "ckpt.swap_in";
        rule.probability = restore_failure_rate;
        fault::FaultPlan plan;
        plan.rules.push_back(std::move(rule));
        serve.fault_injector().Configure(std::move(plan));
      }
      sim::Rng rng(99);
      for (int i = 0; i < 40; ++i) {
        co_await bed.sim.Delay(sim::Seconds(rng.Exponential(0.3)));
        // Alternate models so every request pays a swap-in.
        ChatResult r = co_await serve.ChatAndWait(
            i % 2 == 0 ? kLargeA : kLargeB, 256, 64);
        EXPECT_TRUE(r.ok) << r.error;
        latencies.push_back(r.total_s);
      }
      serve.Shutdown();
    });
    EXPECT_EQ(
        serve.metrics().TotalFailed() + serve.metrics().TotalExpired(), 0u);
    std::sort(latencies.begin(), latencies.end());
    return latencies[latencies.size() * 99 / 100];
  };
  const double p99_clean = run(0.0);
  const double p99_faulty = run(0.05);
  EXPECT_LE(p99_faulty, 3.0 * p99_clean)
      << "unbounded tail latency under 5% restore failures";
}

// Tier-aware chaos: alternate two models whose snapshots cannot share the
// bounded host cache, so every swap-in needs an NVMe promotion, with the
// promotion path set to fail every time. The run must degrade to direct
// NVMe reads — slower, but not a single lost request.
TEST(ChaosTierTest, PromotionFailureDegradesToDirectReadsWithoutLoss) {
  constexpr const char* kLargeA = "llama-3.3-70b-fp8";
  constexpr const char* kLargeB = "deepseek-r1-14b-fp16";
  TestBed bed;
  std::vector<std::pair<std::string, std::string>> entries = {
      {kLargeA, "ollama"}, {kLargeB, "ollama"}};
  Config cfg = bed.MakeConfig(entries);
  cfg.fault.seed = 0xdecaf;
  cfg.global.host_cache_mib = 80.0 * 1024;  // holds either snapshot, not both
  cfg.global.snapshot_prefetch = true;
  SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    fault::FaultRule rule;
    rule.point = "storage.promote";
    fault::FaultPlan plan;
    plan.rules.push_back(std::move(rule));
    serve.fault_injector().Configure(std::move(plan));
    for (int i = 0; i < 12; ++i) {
      ChatResult r = co_await serve.ChatAndWait(
          i % 2 == 0 ? kLargeA : kLargeB, 256, 64);
      EXPECT_TRUE(r.ok) << r.error;
    }
    serve.Shutdown();
  });
  ckpt::SnapshotTierManager* tier = serve.tier_manager();
  ASSERT_NE(tier, nullptr);
  EXPECT_EQ(serve.metrics().TotalFailed() + serve.metrics().TotalExpired(),
            0u);
  EXPECT_GT(tier->demotions(), 0u);
  EXPECT_GT(tier->promotion_failures(), 0u);
  EXPECT_GT(tier->direct_reads(), 0u);
  EXPECT_EQ(tier->promotions(), 0u);  // every promotion attempt was refused
  EXPECT_EQ(tier->committed(), Bytes(0));
  EXPECT_EQ(tier->pinned_count(), 0u);
}

// Corruption injected during promotion must surface as DATA_LOSS and drive
// the engine's cold-restore fallback — never a silently served snapshot.
TEST(ChaosTierTest, PromotionCorruptionIsDataLossNeverSilent) {
  constexpr const char* kLargeA = "llama-3.3-70b-fp8";
  constexpr const char* kLargeB = "deepseek-r1-14b-fp16";
  TestBed bed;
  std::vector<std::pair<std::string, std::string>> entries = {
      {kLargeA, "ollama"}, {kLargeB, "ollama"}};
  Config cfg = bed.MakeConfig(entries);
  cfg.fault.seed = 0xdecaf;
  cfg.global.host_cache_mib = 80.0 * 1024;
  SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    fault::FaultRule rule;
    rule.point = "storage.promote";
    rule.code = StatusCode::kDataLoss;
    rule.max_fires = 2;  // corrupt the first promotions, then recover
    fault::FaultPlan plan;
    plan.rules.push_back(std::move(rule));
    serve.fault_injector().Configure(std::move(plan));
    for (int i = 0; i < 12; ++i) {
      ChatResult r = co_await serve.ChatAndWait(
          i % 2 == 0 ? kLargeA : kLargeB, 256, 64);
      EXPECT_TRUE(r.ok) << r.error;
    }
    serve.Shutdown();
  });
  ckpt::SnapshotTierManager* tier = serve.tier_manager();
  ASSERT_NE(tier, nullptr);
  // The corrupted promotions were caught by the checksum and absorbed as
  // cold-restore recoveries; nothing failed and nothing leaked.
  EXPECT_EQ(serve.metrics().TotalFailed() + serve.metrics().TotalExpired(),
            0u);
  EXPECT_GE(serve.metrics().recoveries, 1u);
  EXPECT_EQ(tier->committed(), Bytes(0));
  EXPECT_EQ(tier->pinned_count(), 0u);
}

}  // namespace
}  // namespace swapserve::core
