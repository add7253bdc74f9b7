#include "workload/trace.h"

#include <cmath>
#include <limits>

#include "util/status.h"

namespace swapserve::workload {

std::vector<TraceEvent> GenerateTrace(const std::vector<ModelWorkload>& mix,
                                      double horizon_s, std::uint64_t seed) {
  SWAP_CHECK_MSG(!mix.empty(), "empty workload mix");
  // The root only forks, so each model's (arrivals, lengths) pair depends
  // on its position in the mix alone. SampleArrivals yields each model's
  // arrivals already in time order, and the merge below draws each
  // model's lengths in that same order.
  sim::Rng root(seed);
  std::vector<std::vector<double>> times(mix.size());
  std::vector<sim::Rng> lengths_rngs;
  lengths_rngs.reserve(mix.size());
  std::vector<ModelName> names;
  names.reserve(mix.size());
  std::size_t total = 0;
  for (std::size_t m = 0; m < mix.size(); ++m) {
    SWAP_CHECK_MSG(mix[m].rate != nullptr && mix[m].profile != nullptr,
                   "workload missing rate/profile");
    sim::Rng arrivals_rng = root.Fork();
    lengths_rngs.push_back(root.Fork());
    names.emplace_back(mix[m].model_id);
    times[m] = SampleArrivals(*mix[m].rate, horizon_s, arrivals_rng);
    total += times[m].size();
  }

  // k-way merge. Equal times go to the lower model index, which is the
  // order a stable sort of the concatenated streams would give.
  std::vector<TraceEvent> trace;
  trace.reserve(total);
  std::vector<std::size_t> next(mix.size(), 0);
  while (trace.size() < total) {
    std::size_t best = mix.size();
    double best_t = std::numeric_limits<double>::infinity();
    for (std::size_t m = 0; m < mix.size(); ++m) {
      if (next[m] < times[m].size() && times[m][next[m]] < best_t) {
        best = m;
        best_t = times[m][next[m]];
      }
    }
    ++next[best];
    const TokenSample tokens = mix[best].profile->Sample(lengths_rngs[best]);
    trace.emplace_back(best_t, names[best], tokens.prompt_tokens,
                       tokens.output_tokens);
  }
  return trace;
}

std::vector<HourBucket> HourlyTokenVolume(
    const std::vector<TraceEvent>& trace, double horizon_s) {
  const auto n_hours =
      static_cast<std::size_t>(std::ceil(horizon_s / 3600.0));
  std::vector<HourBucket> buckets(n_hours);
  for (std::size_t i = 0; i < n_hours; ++i) {
    buckets[i].hour_start_s = static_cast<double>(i) * 3600.0;
  }
  for (const TraceEvent& ev : trace) {
    const auto idx = static_cast<std::size_t>(ev.time_s / 3600.0);
    if (idx >= n_hours) continue;
    ++buckets[idx].requests;
    buckets[idx].input_tokens += ev.prompt_tokens;
    buckets[idx].output_tokens += ev.output_tokens;
  }
  return buckets;
}

}  // namespace swapserve::workload
