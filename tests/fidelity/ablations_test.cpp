// Ablation fidelity: A1-A3 as EXPERIMENTS.md records them, run through the
// same scenario functions their benches print. Each row pins the recorded
// values and asserts the shape the bench claims, so a scheduler, reservation
// or checkpoint change that moves a row fails here; re-recording a value is
// a change to this gate and must say why.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "bench/scenarios.h"

namespace swapserve::bench {
namespace {

// Printed values carry two decimals; the gate allows their rounding.
constexpr double kCents = 0.005;

// A1: the four policies, in the bench's order.
TEST(AblationFidelityTest, A1PreemptionPolicies) {
  struct Row {
    core::PreemptionPolicy policy;
    double p99_ttft_s;
    std::uint64_t preemptions;
  };
  constexpr std::array<Row, 4> kRows = {{
      {core::PreemptionPolicy::kDemandAware, 6.29, 191},
      {core::PreemptionPolicy::kLruOnly, 6.34, 191},
      {core::PreemptionPolicy::kRandom, 8.95, 262},
      {core::PreemptionPolicy::kLargestFirst, 11.48, 511},
  }};
  std::array<TraceRun, 4> runs;
  for (std::size_t i = 0; i < kRows.size(); ++i) {
    SCOPED_TRACE(std::string(core::PreemptionPolicyName(kRows[i].policy)));
    runs[i] = RunPreemption(kRows[i].policy);
    EXPECT_NEAR(runs[i].p99_ttft_s, kRows[i].p99_ttft_s, kCents);
    EXPECT_EQ(runs[i].preemptions, kRows[i].preemptions);
    EXPECT_EQ(runs[i].sent, 1465u);
    EXPECT_EQ(runs[i].completed, runs[i].sent);
  }
  // The bench's claim: demand-aware <= lru-only < random < largest-first,
  // on p99 TTFT and on preemptions alike.
  const TraceRun& demand = runs[0];
  const TraceRun& lru = runs[1];
  const TraceRun& random = runs[2];
  const TraceRun& largest = runs[3];
  EXPECT_LE(demand.p99_ttft_s, lru.p99_ttft_s);
  EXPECT_LT(lru.p99_ttft_s, random.p99_ttft_s);
  EXPECT_LT(random.p99_ttft_s, largest.p99_ttft_s);
  EXPECT_LE(demand.preemptions, lru.preemptions);
  EXPECT_LT(lru.preemptions, random.preemptions);
  EXPECT_LT(random.preemptions, largest.preemptions);
}

// A2: §3.4's worked example, read off the returned timeline.
TEST(AblationFidelityTest, A2ReservationQueue) {
  const Reservation run = RunReservation();
  ASSERT_EQ(run.timeline.size(), 8u);
  auto step = [&](ReservationRequest request, bool served) {
    for (const ReservationStep& s : run.timeline) {
      if (s.request == request && s.served == served) return s;
    }
    ADD_FAILURE() << "no step for request " << static_cast<int>(request);
    return ReservationStep{};
  };
  using R = ReservationRequest;
  const ReservationStep gemma_in = step(R::kGemma, false);
  const ReservationStep gemma = step(R::kGemma, true);
  const ReservationStep coder_in = step(R::kCoder, false);
  const ReservationStep coder = step(R::kCoder, true);
  const ReservationStep big_in = step(R::kLlama70b, false);
  const ReservationStep big = step(R::kLlama70b, true);
  const ReservationStep follow_in = step(R::kGemmaFollowUp, false);
  const ReservationStep follow = step(R::kGemmaFollowUp, true);

  // The recorded times (EXPERIMENTS.md's A2 row).
  EXPECT_NEAR(gemma.t_s, 2.80, kCents);
  EXPECT_NEAR(gemma.swap_wait_s, 2.38, kCents);
  EXPECT_NEAR(coder.t_s, 4.24, kCents);
  EXPECT_NEAR(coder.swap_wait_s, 3.91, kCents);
  EXPECT_NEAR(big_in.t_s, 60.0, kCents);
  EXPECT_NEAR(big.t_s, 74.00, kCents);
  EXPECT_NEAR(big.swap_wait_s, 12.22, kCents);
  EXPECT_NEAR(follow_in.t_s, 66.0, kCents);
  EXPECT_NEAR(follow.t_s, 84.43, kCents);
  EXPECT_NEAR(follow.swap_wait_s, 18.01, kCents);
  EXPECT_EQ(run.preemptions, 3u);

  // The two small swap-waits overlap: both reservations were granted at
  // once, so neither swap-in waited for the other to finish.
  const double gemma_wait_end = gemma_in.t_s + gemma.swap_wait_s;
  const double coder_wait_end = coder_in.t_s + coder.swap_wait_s;
  EXPECT_LT(std::max(gemma_in.t_s, coder_in.t_s),
            std::min(gemma_wait_end, coder_wait_end));
  // The 70B is served only once both small residents were preempted.
  EXPECT_EQ(big_in.preemptions, 0u);
  EXPECT_EQ(big.preemptions, 2u);
  // FIFO: the follow-up is issued while the 70B waits, and is served only
  // after it, by preempting the 70B in turn.
  EXPECT_LT(follow_in.t_s, big.t_s);
  EXPECT_GT(follow.t_s, big.t_s);
  EXPECT_EQ(follow.preemptions, 3u);
}

// A3: vLLM sleep mode on and off, for each model of the bench.
TEST(AblationFidelityTest, A3SleepMode) {
  struct Row {
    const char* model_id;
    double snapshot_gib;  // sleep on; off is always the 72 GiB claim
    double swap_out_s;
    double swap_in_s;
  };
  constexpr std::array<Row, 3> kRows = {{
      {"llama-3.2-1b-fp16", 2.3, 0.81, 5.86},
      {"llama-3.1-8b-fp16", 15.0, 1.94, 6.84},
      {"deepseek-r1-14b-fp16", 27.5, 3.06, 7.81},
  }};
  for (const Row& row : kRows) {
    SCOPED_TRACE(row.model_id);
    const SwapIn on = MeasureSwapIn(Machine::kH100, row.model_id,
                                    model::EngineKind::kVllm, true);
    const SwapIn off = MeasureSwapIn(Machine::kH100, row.model_id,
                                     model::EngineKind::kVllm, false);
    EXPECT_NEAR(on.snapshot_gib, row.snapshot_gib, 0.05);
    EXPECT_NEAR(on.swap_out_s, row.swap_out_s, kCents);
    EXPECT_NEAR(on.swap_in_s, row.swap_in_s, kCents);
    EXPECT_NEAR(off.snapshot_gib, 72.0, 0.05);
    EXPECT_NEAR(off.swap_out_s, 6.86, kCents);
    EXPECT_NEAR(off.swap_in_s, 11.15, kCents);

    EXPECT_LT(on.snapshot_gib, off.snapshot_gib);
    EXPECT_LT(on.swap_out_s, off.swap_out_s);
    EXPECT_LT(on.swap_in_s, off.swap_in_s);
  }
}

}  // namespace
}  // namespace swapserve::bench
