// The Fig. 3 month: six models for a small academic group under sporadic
// load (e-INFRA CZ's H100 in the paper), served by dedicated deployments
// (one GPU per model) and by SwapServeLLM (all six on one H100).
//
// bench_fig3_utilization prints it as the Fig. 3 table, and the fidelity
// test holds it to the bands EXPERIMENTS.md records.

#pragma once

#include <cstddef>
#include <cstdint>

namespace swapserve::bench {

inline constexpr double kFig3Days = 30.0;

struct Fig3Run {
  double mean_mem_gib = 0;  // dedicated: summed over the fleet
  double peak_mem_gib = 0;  // per GPU
  double mean_util_pct = 0;  // dedicated: the per-GPU average
  double p99_ttft_s = 0;
  double gpu_hours = 0;
  std::uint64_t completed = 0;
  std::uint64_t swap_ins = 0;
};

struct Fig3Month {
  std::size_t requests = 0;  // the trace's size
  Fig3Run dedicated;
  Fig3Run swapserve;
};

// Generates the month's trace (the seed EXPERIMENTS.md's table was
// measured at) and serves it both ways.
Fig3Month RunFig3Month();

}  // namespace swapserve::bench
