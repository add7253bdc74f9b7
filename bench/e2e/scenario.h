// One end-to-end scenario of bench_e2e.
//
// A workload file (bench/e2e/workloads/<name>.json) is a core::Config plus
// a "bench" section describing the traffic. RunRep parses the config
// through the production path, generates the arrival schedule (and, for
// the router entry, the OpenAI request bodies) from the seed, builds a
// fresh Simulation and fleet, initializes it, replays the schedule
// open-loop through one public entry point, drains, checks the outputs and
// reports what happened.
//
// Two clocks: `sim` values come from the simulated server and are a pure
// function of (workload, seed) — main.cpp checks they repeat bit-for-bit
// across reps and between traced and untraced reps. Wall values are read
// only by this harness (steady_clock) and never feed the simulation.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "json/json.h"
#include "util/status.h"

namespace swapserve::bench::e2e {

// The public call each arrival goes through.
enum class Entry {
  kRouter,   // OpenAiRouter::ChatCompletions with a JSON body
  kServe,    // SwapServe::ChatAndWait
  kCluster,  // ClusterServe::Accept
};

struct WorkloadSpec {
  std::string name;
  Entry entry = Entry::kServe;
  double ttft_limit_s = 0;
  double horizon_s = 0;      // arrival window
  std::string config_text;   // the whole file; core::Config ignores "bench"
  json::Value bench;         // the "bench" section
};

Result<WorkloadSpec> LoadWorkload(const std::string& path);

using Named = std::pair<std::string, double>;

// A wall-clock span of the harness itself, in seconds from the rep start.
struct PhaseSpan {
  std::string name;
  double start_s = 0;
  double end_s = 0;
};

struct RepOptions {
  std::uint64_t seed = 0;
  double horizon_scale = 1.0;  // --smoke shrinks the arrival window
  bool traced = false;
  std::string out_dir;  // traced reps export their artefacts here
};

struct RepResult {
  // Wall clock.
  double gen_s = 0;       // arrival schedule and request bodies
  double setup_s = 0;     // config + gen + construct + initialize
  double run_wall_s = 0;  // first arrival until Simulation::Run() returns
  std::vector<PhaseSpan> phases;
  std::vector<float> call_us;  // traced: each ChatCompletions/Accept call
  double call_wall_s = 0;      // traced: sum of call_us
  double export_s = 0;         // traced: artefact export
  // Simulated, in a fixed order; identical for every rep of one seed.
  std::vector<Named> sim;
  // Trace recorder counters (differ between traced and untraced reps).
  double trace_events = 0;
  double trace_dropped = 0;
  // Request accounting, and the output checks that failed ("check: why").
  std::uint64_t sent = 0;
  std::uint64_t unaccounted = 0;  // requests no check could account for
  std::vector<std::string> violations;

  double Sim(const std::string& name) const;
};

RepResult RunRep(const WorkloadSpec& spec, const RepOptions& options);

}  // namespace swapserve::bench::e2e
