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
//
// An event names its model with a ModelName (an interned util Name): a
// trace stays readable after the mix that named its models is gone
// (bench_e2e generates its trace and then drops the mix), and any number
// of traces share one table entry per name.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/random.h"
#include "util/name.h"
#include "workload/arrival.h"
#include "workload/request_gen.h"

namespace swapserve::workload {

// A trace event's model: an interned Name (util/name.h), so a 260k-event
// trace holds each model id once, not once per event.
using ModelName = Name;

// Token counts are 32-bit: RequestProfile clips lengths to a max_tokens
// that must fit (its constructor rejects a larger one).
struct TraceEvent {
  double time_s = 0;
  ModelName model_id;
  std::int32_t prompt_tokens = 0;
  std::int32_t output_tokens = 0;
};
// The trace is the largest structure a long run holds (260k events for a
// simulated year): keep an event at three words with no heap memory.
static_assert(sizeof(TraceEvent) == 24);

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
