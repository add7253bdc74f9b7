// End-to-end property sweep: random multi-model workloads, checked against
// the system invariants in DESIGN.md §6:
//   - every accepted request terminates in exactly one Done or Error;
//   - nothing is lost: accepted == completed + failed + expired;
//   - the GPU never overcommits and nothing leaks after the run;
//   - identical seeds give identical outcomes.

#include <gtest/gtest.h>

#include "../core/fixture.h"
#include "core/swap_serve.h"
#include "sim/random.h"
#include "workload/arrival.h"
#include "workload/request_gen.h"
#include "workload/trace.h"

namespace swapserve::core {
namespace {

using testing::TestBed;

constexpr const char* kPool[] = {
    "llama-3.2-1b-fp16",        "llama-3.2-3b-fp16",
    "deepseek-r1-7b-fp16",      "deepseek-coder-6.7b-fp16",
    "deepseek-r1-14b-fp16",     "gemma-7b-fp16",
};

struct RunOutcome {
  std::uint64_t accepted = 0;
  std::uint64_t terminal_done = 0;
  std::uint64_t terminal_error = 0;
  std::uint64_t rejected = 0;
  double ttft_sum = 0;
  std::uint64_t swap_ins = 0;

  bool operator==(const RunOutcome&) const = default;
};

RunOutcome RunRandomWorkload(std::uint64_t seed, int n_models,
                             int n_requests) {
  TestBed bed;
  std::vector<std::pair<std::string, std::string>> entries;
  sim::Rng rng(seed);
  for (int i = 0; i < n_models; ++i) {
    entries.push_back({kPool[i], rng.Bernoulli(0.5) ? "ollama" : "ollama"});
  }
  Config cfg = bed.MakeConfig(entries);
  cfg.global.queue_capacity = 8;
  SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());

  RunOutcome out;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    for (int i = 0; i < n_requests; ++i) {
      co_await bed.sim.Delay(sim::Seconds(rng.Exponential(0.5)));
      InferenceRequest req;
      req.model = kPool[rng.UniformInt(0, n_models - 1)];
      req.prompt_tokens = rng.UniformInt(8, 2048);
      req.max_tokens = rng.UniformInt(1, 256);
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
            out.ttft_sum += chunk->ttft_s;
          }
          if (chunk->kind == ResponseChunk::Kind::kError) {
            ++terminals;
            ++out.terminal_error;
          }
        }
        EXPECT_EQ(terminals, 1);  // exactly one terminal chunk
      });
    }
    co_await bed.sim.Delay(sim::Minutes(30));  // drain
    serve.Shutdown();
  });

  // Post-run invariants.
  const Metrics& m = serve.metrics();
  EXPECT_EQ(out.accepted,
            m.TotalCompleted() + m.TotalFailed() + m.TotalExpired())
      << "requests lost or double-counted";
  EXPECT_EQ(out.terminal_done, m.TotalCompleted());
  EXPECT_EQ(m.TotalRejected(), out.rejected);
  EXPECT_LE(bed.gpus[0]->used(), bed.gpus[0]->capacity());
  EXPECT_EQ(serve.task_manager().OutstandingReserved(0).count(), 0);
  EXPECT_EQ(serve.task_manager().PendingRequests(0), 0u);
  // Host snapshots only for swapped-out backends.
  std::size_t swapped_out = 0;
  for (Backend* b : serve.backends()) {
    if (b->engine->state() == engine::BackendState::kSwappedOut) {
      ++swapped_out;
      EXPECT_TRUE(b->has_snapshot);
    }
  }
  EXPECT_EQ(serve.snapshot_store().count(), swapped_out);
  out.swap_ins = m.swap_ins;
  return out;
}

class ServingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ServingProperty, InvariantsHoldUnderRandomWorkload) {
  RunOutcome out = RunRandomWorkload(GetParam(), 4, 120);
  EXPECT_GT(out.accepted, 0u);
  EXPECT_EQ(out.terminal_done + out.terminal_error, out.accepted);
  EXPECT_EQ(out.terminal_error, 0u);  // well-formed workload: no failures
}

TEST_P(ServingProperty, DeterministicForSeed) {
  RunOutcome a = RunRandomWorkload(GetParam(), 3, 60);
  RunOutcome b = RunRandomWorkload(GetParam(), 3, 60);
  EXPECT_EQ(a, b);
  EXPECT_DOUBLE_EQ(a.ttft_sum, b.ttft_sum);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServingProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

// Heavier sweep: six models whose footprints exceed the GPU, forcing
// constant preemption, at several load levels.
class OverloadProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(OverloadProperty, NoRequestLostUnderMemoryPressure) {
  const auto [seed, n_requests] = GetParam();
  RunOutcome out = RunRandomWorkload(seed, 6, n_requests);
  EXPECT_EQ(out.terminal_done + out.terminal_error, out.accepted);
  EXPECT_EQ(out.terminal_error, 0u);
  EXPECT_GT(out.swap_ins, 0u);  // pressure actually caused swapping
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndLoads, OverloadProperty,
    ::testing::Combine(::testing::Values(7u, 11u, 99u),
                       ::testing::Values(60, 200)));

// Fault-free churn of all six models as vLLM backends on one H100 against a
// bounded host tier that holds only part of their snapshots: every swap-in
// of a demoted snapshot first promotes it from NVMe. The arrivals are the
// first hour of a diurnal day, weighted 4:3:2:1.5:1:0.7 across the models
// (about 130 requests). Nothing fails, so every response channel must end
// and every request must complete before the server shuts down.
TEST(BoundedTierChurn, EveryRequestCompletes) {
  TestBed bed;
  std::vector<std::pair<std::string, std::string>> entries;
  for (const char* id : kPool) entries.push_back({id, "vllm"});
  Config cfg = bed.MakeConfig(entries);
  cfg.global.host_cache_mib = 32768;
  cfg.global.snapshot_prefetch = true;
  ASSERT_TRUE(cfg.Validate(bed.catalog, 1).ok());
  SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());

  const double weights[] = {4, 3, 2, 1.5, 1, 0.7};
  double weight_sum = 0;
  for (double w : weights) weight_sum += w;
  const workload::RequestProfile profile = workload::RequestProfile::ShortQa();
  std::vector<workload::DiurnalRate> rates;
  for (double w : weights) {
    rates.push_back(
        workload::DiurnalRate::ConversationalPreset(0.244 * w / weight_sum));
  }
  std::vector<workload::ModelWorkload> mix;
  for (std::size_t i = 0; i < std::size(kPool); ++i) {
    mix.push_back({kPool[i], &rates[i], &profile});
  }
  const std::vector<workload::TraceEvent> trace =
      workload::GenerateTrace(mix, 3600, /*seed=*/1);
  ASSERT_GT(trace.size(), 100u);

  std::uint64_t sent = 0;
  std::uint64_t ended = 0;
  std::uint64_t ended_before_shutdown = 0;
  std::uint64_t completed_before_shutdown = 0;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    const sim::SimTime start = bed.sim.Now();
    for (const workload::TraceEvent& ev : trace) {
      const sim::SimTime at = start + sim::Seconds(ev.time_s);
      if (at > bed.sim.Now()) co_await bed.sim.Delay(at - bed.sim.Now());
      InferenceRequest req;
      req.model = ev.model_id;
      req.prompt_tokens = ev.prompt_tokens;
      req.max_tokens = ev.output_tokens;
      Result<ResponseChannelPtr> ch = serve.handler().Accept(req);
      ++sent;
      if (!ch.ok()) continue;
      sim::Spawn([&ended, channel = *ch]() -> sim::Task<> {
        while (co_await channel->Recv()) {
        }
        ++ended;
      });
    }
    co_await bed.sim.Delay(sim::Minutes(30));  // drain
    ended_before_shutdown = ended;
    completed_before_shutdown = serve.metrics().TotalCompleted();
    serve.Shutdown();
  });
  EXPECT_EQ(ended_before_shutdown, sent) << "response channels never ended";
  EXPECT_EQ(completed_before_shutdown, sent);
  EXPECT_GT(serve.metrics().swap_ins, 0u);
}

}  // namespace
}  // namespace swapserve::core
