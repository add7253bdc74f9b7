// The paper's evaluation and the ablations as functions. Each one builds
// fresh simulations, runs its scenario in virtual time and returns the rows
// its bench prints; the bench_* mains only print them, and the `ctest -L
// fidelity` tests hold the same rows to the values EXPERIMENTS.md records.
// Every measurement the figures share (a cold start, one swap-in, one
// Ollama load, a trace replay) exists once, in scenarios.cpp.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/engine_controller.h"
#include "engine/engine.h"
#include "model/calibration.h"

namespace swapserve::bench {

// ---- Measurements several figures share --------------------------------

// Table 1, Fig. 2, and the cold-start columns of Fig. 6a and T1.
struct ColdStart {
  double seconds = 0;  // container start included
  engine::InitBreakdown breakdown;
};

// Cold-starts `kind`'s engine serving `model_id` on a fresh H100.
ColdStart MeasureColdStart(model::EngineKind kind,
                           const std::string& model_id);

// Fig. 5, 6a, 6b and A3: SwapServeLLM serving `model_id` alone on a fresh
// `machine`. Initialisation parks the backend; one request swaps it in.
struct SwapIn {
  double resident_gib = 0;  // the backend's GPU footprint
  double snapshot_gib = 0;  // the parked snapshot's dirty bytes
  double swap_in_s = 0;
  double swap_out_s = 0;  // the park at initialisation
};

SwapIn MeasureSwapIn(Machine machine, const std::string& model_id,
                     model::EngineKind engine, bool sleep_mode);

// Fig. 5 and 6b: one Ollama on-demand load of `model_id` on a fresh
// `machine`, its storage NVMe (bandwidth scaled by `disk_bw_scale`) or tmpfs.
double MeasureOllamaLoad(Machine machine, const std::string& model_id,
                         bool tmpfs, double disk_bw_scale);

// A trace served start to finish; each bench prints the columns it reports.
// The memory and utilisation columns average over the trace's horizon.
struct TraceRun {
  std::size_t sent = 0;
  std::uint64_t completed = 0;
  double p50_ttft_s = 0;
  double p99_ttft_s = 0;
  std::uint64_t swap_ins = 0;
  std::uint64_t preemptions = 0;
  double mean_swap_wait_s = 0;
  double mean_mem_gib = 0;   // dedicated: summed over the fleet
  double peak_mem_gib = 0;   // per GPU
  double mean_util_pct = 0;  // dedicated: the per-GPU average
  double gpu_hours = 0;
};

// One trace served two ways: one dedicated GPU per model, and SwapServeLLM
// with every model on one GPU.
struct Consolidation {
  std::size_t requests = 0;  // the trace's size
  TraceRun dedicated;
  TraceRun swapserve;
};

// ---- Paper figures -----------------------------------------------------

struct Fig5Row {
  std::string model_id;
  double disk_min_s = 0;  // over five trials of drawn NVMe bandwidth
  double disk_max_s = 0;
  double memory_s = 0;  // Ollama loading from tmpfs
  double swapserve_s = 0;
};

// Every model of Fig. 5 on the A100 server. The disk trials of all rows
// draw from one random sequence, so the rows come as one list.
std::vector<Fig5Row> RunFig5();

// Fig. 3: six models under a month of sporadic academic load (e-INFRA CZ's
// H100 in the paper), at the trace seed EXPERIMENTS.md's table was
// measured at.
inline constexpr double kFig3Days = 30.0;
using Fig3Run = TraceRun;
using Fig3Month = Consolidation;
Fig3Month RunFig3Month();

// Fig. 6a's telemetry: two vLLM models alternating on one H100, so every
// request swaps. Writes the Chrome trace and the Prometheus text.
void WriteFig6aArtifacts(const std::string& trace_path,
                         const std::string& prom_path);

// T1 (§2.3): decode throughput and prefill latency of a warm engine.
struct Throughput {
  double tokens_per_s_b1 = 0;   // single stream
  double tokens_per_s_b16 = 0;  // 16-way continuous batch
  double ttft_ms = 0;           // 512-token prompt
};

Throughput MeasureThroughput(model::EngineKind kind,
                             const std::string& model_id);

// ---- Ablations ---------------------------------------------------------

// A1: six Ollama models (~107 GiB) on one H100 under two hours of
// popularity-skewed load, evicting with `policy`.
TraceRun RunPreemption(core::PreemptionPolicy policy);

// A2: §3.4's worked example on one A100. The requests, in issue order:
// two small models at once, the 70B a minute later, and a gemma follow-up
// behind the 70B's reservation.
enum class ReservationRequest { kGemma, kCoder, kLlama70b, kGemmaFollowUp };

struct ReservationStep {
  ReservationRequest request;
  bool served = false;  // false: issued
  double t_s = 0;       // since the end of initialisation
  double swap_wait_s = 0;         // served steps only
  std::uint64_t preemptions = 0;  // so far
};

struct Reservation {
  std::vector<ReservationStep> timeline;  // in the order the steps happened
  std::uint64_t preemptions = 0;
};

Reservation RunReservation();

// A4: the first `n_models` of a 12-model pool under one diurnal day.
Consolidation RunConsolidation(int n_models);

// A5: eight vLLM backends pinned round-robin to `gpus` H100s, three waves
// of all-models-at-once requests.
struct MultiGpu {
  double makespan_s = 0;
  std::uint64_t swap_ins = 0;
  std::uint64_t preemptions = 0;
  double mean_swap_in_s = 0;
};

MultiGpu RunMultiGpu(int gpus);

// A6: six Ollama models, four hours of sparse bursts, idle backends parked
// after `idle_swap_out_s` (0: never, the paper's pressure-only policy).
TraceRun RunIdleReaper(double idle_swap_out_s);

}  // namespace swapserve::bench
