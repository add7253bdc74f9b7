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
// An event names its model with a ModelName: a pointer into a
// process-wide intern table, so a 260k-event trace holds each name once,
// not once per event (model ids are 17-24 characters, past std::string's
// inline buffer, so each per-event copy would be a heap block).
// The table is a node-based set that only grows and lives as long as the
// process: a trace stays readable after the mix that named its models is
// gone (bench_e2e generates its trace and then drops the mix), and any
// number of traces share one entry per name.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/random.h"
#include "workload/arrival.h"
#include "workload/request_gen.h"

namespace swapserve::workload {

// An interned model name: 8 bytes, copied by value. Two ModelNames are
// equal exactly when they point at the same table entry. It reads as the
// name it holds: it converts to `const std::string&` (a string-keyed
// map's key) and to `std::string_view` (a borrowed request name), and
// compares with strings.
class ModelName {
 public:
  // Finds or inserts `name` in the table: one mutex-guarded lookup, and
  // one copy of the text the first time the process sees it.
  explicit ModelName(std::string_view name);

  const std::string& str() const { return *name_; }
  operator const std::string&() const { return *name_; }
  operator std::string_view() const { return *name_; }

  friend bool operator==(ModelName a, ModelName b) {
    return a.name_ == b.name_;
  }
  friend bool operator==(ModelName a, std::string_view b) {
    return *a.name_ == b;
  }
  friend bool operator==(ModelName a, const char* b) { return *a.name_ == b; }
  friend std::ostream& operator<<(std::ostream& os, ModelName name);

 private:
  const std::string* name_;  // a table entry; never freed
};

struct TraceEvent {
  double time_s = 0;
  ModelName model_id;
  std::int64_t prompt_tokens = 0;
  std::int64_t output_tokens = 0;
};
// The trace is the largest structure a long run holds (260k events for a
// simulated year): keep an event at four words with no heap memory.
static_assert(sizeof(TraceEvent) == 32);

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
