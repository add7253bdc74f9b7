// Trace generation and aggregation.
//
// A trace is a time-ordered list of (arrival, model, token lengths) events.
// GenerateTrace composes a rate curve with a request profile per model in
// one pass: it forks each model's arrival and length streams from the
// root seed in mix order, samples the model's arrivals (already in time
// order) into its own array, and k-way merges the arrays into the trace,
// equal times going to the lower model index; each event draws its token
// lengths from its model's stream as it is merged.
// HourlyTokenVolume aggregates a trace into the per-hour input/output
// token series Fig. 1 plots.

#pragma once

#include <string>
#include <vector>

#include "sim/random.h"
#include "workload/arrival.h"
#include "workload/request_gen.h"

namespace swapserve::workload {

struct TraceEvent {
  double time_s = 0;
  std::string model_id;
  std::int64_t prompt_tokens = 0;
  std::int64_t output_tokens = 0;
};

struct ModelWorkload {
  std::string model_id;
  const RateCurve* rate = nullptr;       // not owned
  const RequestProfile* profile = nullptr;  // not owned
};

// Generates a merged, time-sorted trace for several models over
// [0, horizon). Deterministic in `seed`; a model's events depend only on
// the seed and its position in `mix`.
std::vector<TraceEvent> GenerateTrace(const std::vector<ModelWorkload>& mix,
                                      double horizon_s, std::uint64_t seed);

// Per-hour aggregate token volumes (Fig. 1's series).
struct HourBucket {
  double hour_start_s = 0;
  std::int64_t requests = 0;
  std::int64_t input_tokens = 0;
  std::int64_t output_tokens = 0;
};

std::vector<HourBucket> HourlyTokenVolume(
    const std::vector<TraceEvent>& trace, double horizon_s);

}  // namespace swapserve::workload
