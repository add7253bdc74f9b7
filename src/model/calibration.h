// Calibration constants fitted to the paper's measurements.
//
// Every latency the simulator produces traces back to a constant in this
// file, each annotated with the paper table/figure it was fitted against.
// Every per-engine constant lives here too: one EngineProfile row per
// engine kind holds its name, container boot, efficiencies, init phases,
// memory policy, sleep-mode costs and checkpoint/restore models, and the
// one engine class in src/engine/ reads that row. We reproduce the paper's
// *shape* (orderings, ratios, crossovers); exact wall-clock equality is
// neither expected nor required (DESIGN.md §4).

#pragma once

#include <optional>
#include <string_view>

#include "model/model_spec.h"
#include "sim/time.h"
#include "util/units.h"

namespace swapserve::model {

// --- engine initialization phases (paper Table 1 and Fig. 2) -------------
//
// A cold start runs `setup`, moves the weights, then waits out compile,
// cuda_graphs and other in that order; a zero phase costs no event.
struct InitPhases {
  sim::SimDuration setup{};  // before the weights (Ollama's runner spawn)
  // vLLM: the calibrated whole load. SGLang, TRT-LLM: the fixed H2D and
  // placement cost after the read. Ollama: unused (pipelined).
  sim::SimDuration weight_load{};
  sim::SimDuration compile{};      // torch.compile / TRT engine build
  sim::SimDuration cuda_graphs{};  // CUDA graph capture
  sim::SimDuration other{};        // tokenizer, KV allocation, warm-up

  sim::SimDuration Total() const {
    return setup + weight_load + compile + cuda_graphs + other;
  }
};

// vLLM (Table 1, H100): torch.compile and CUDA-graph capture dominate. For
// the ten models the paper measured we carry the measured values; unknown
// models fall back to parameter-count formulas fitted to the same table.

// Returns the Table-1 calibrated phases when the model is one of the ten
// measured ones, otherwise the formula fallback. `disk_read` is the host's
// effective weight-read bandwidth (weight load scales with it; the paper's
// H100 host reads at ~6 GB/s).
InitPhases VllmInitModel(const ModelSpec& model, BytesPerSecond disk_read);

// True when the model has a Table-1 entry (used by tests to pin exact
// values).
bool HasVllmCalibration(const ModelSpec& model);

// --- engine checkpoint/restore characteristics (Figs. 5, 6) --------------
//
// Restore latency = fixed + clean_bytes/remap_bw + dirty_bytes/copy_bw.
//   fixed:    cgroup thaw + CUDA context restore + API health check
//   remap_bw: reserved-but-cleared pages (vLLM sleep mode empties the KV
//             arena, so its 60+ GB preallocation restores at remap speed)
//   copy_bw:  pages whose contents must actually move host->device
struct RestoreModel {
  sim::SimDuration fixed;
  BytesPerSecond remap_bw;
  BytesPerSecond copy_bw;

  sim::SimDuration RestoreTime(Bytes clean, Bytes dirty) const {
    return fixed + sim::Seconds(remap_bw.SecondsFor(clean)) +
           sim::Seconds(copy_bw.SecondsFor(dirty));
  }
};

// Fitted to Fig. 6a: 5.5 s (LLaMA-3.2-1B) ... 7.5 s (DS-R1-14B) at
// ~72.5 GB resident on H100, where only the weights are dirty thanks to
// vLLM's sleep-mode optimization.
RestoreModel VllmRestoreH100();
// Fitted to Fig. 6b: 0.75 s @ 3.6 GB ... 4.6 s @ 30.5 GB. Ollama has no
// sleep-mode equivalent, so its whole resident set copies as dirty pages.
RestoreModel OllamaRestoreH100();
// Fitted to Fig. 5 (A100 host, CUDA 12.8 / driver 570).
RestoreModel OllamaRestoreA100();

// Checkpoint (swap-out) side: dirty bytes drain device->host.
struct CheckpointModel {
  sim::SimDuration fixed;
  BytesPerSecond d2h_bw;

  sim::SimDuration CheckpointTime(Bytes dirty) const {
    return fixed + sim::Seconds(d2h_bw.SecondsFor(dirty));
  }
};

CheckpointModel DefaultCheckpointH100();
CheckpointModel DefaultCheckpointA100();

// --- vLLM memory model ----------------------------------------------------
//
// vLLM preallocates gpu_memory_utilization * HBM (default 0.9 -> ~72 GB on
// an 80 GB part, matching Fig. 6a's 72-73 GB).
double VllmDefaultGpuMemoryUtilization();

// --- engine profiles -------------------------------------------------------
//
// The simulator's engines differ in data, not code: SwapServeLLM treats
// each engine as an opaque container whose checkpoint footprint is all
// that matters (PAPER.md §1).
enum class EngineKind { kVllm, kOllama, kSglang, kTrtllm };

// How a cold start moves the weights from storage into HBM.
enum class WeightPath {
  // Sharded read, then wait out the rest of InitPhases::weight_load; the
  // breakdown reports the calibrated weight_load (Table 1's column).
  kReadThenCalibrated,
  // Sharded read, then InitPhases::weight_load more; reports the measured
  // time.
  kReadThenH2d,
  // GGUF read and H2D copy pipelined (mmap'd pages stream straight into
  // the copy engine): the slower path wins; reports the measured time.
  kPipelined,
};

// Swap-out and restore costs on one GPU family.
struct SwapModels {
  CheckpointModel checkpoint;
  RestoreModel restore;
};

struct SleepCosts {
  sim::SimDuration sleep;
  sim::SimDuration wake;
};

// Booting the engine's container, Fig. 2's container_start: podman
// create+start (rootfs, netns), then the entrypoint (interpreter, framework
// imports, engine process spin-up) before model initialization proper.
struct ContainerBoot {
  sim::SimDuration create_start;
  sim::SimDuration entrypoint_boot;
};

struct EngineProfile {
  EngineKind kind;
  std::string_view name;        // config spelling, e.g. "vllm"
  std::string_view alias = "";  // second accepted spelling, or empty
  // Paid once per container, by a cold start; a standby adopting a
  // replicated checkpoint never boots (the home node paid it).
  ContainerBoot boot;

  // Decode is memory-bandwidth-bound: tokens/s ~ hbm_bw / weight_bytes,
  // derated by this factor (vLLM/SGLang/TRT run fused paged kernels;
  // Ollama's llama.cpp kernels reach a smaller fraction of peak -- the Red
  // Hat benchmarking article the paper cites reports a large gap).
  double decode_efficiency;
  // Prefill is compute-bound: seconds ~ 2 * params * tokens / (tflops * eff).
  double prefill_efficiency;

  // Phases as a function of the model and the storage read bandwidth.
  InitPhases (*init_phases)(const ModelSpec& model, BytesPerSecond disk_read);
  WeightPath weight_path;
  // Resident set: the weights plus this runtime overhead (GB), allocated
  // under `weights_purpose`. Ollama's 1.1 GB (llama.cpp runtime + a modest
  // KV buffer) matches Fig. 6b: 3.6 GB for LLaMA-3.2-1B-FP16 (2.5 GB
  // weights), 30.5 GB for DS-R1-14B-FP16 (29.5 GB weights).
  double runtime_overhead_gb = 0.0;
  std::string_view weights_purpose = "weights";
  // KV arena claimed up front as min(gpu_memory_utilization, cap) * HBM *
  // tp - weights under `kv_purpose`; no value = no preallocated arena.
  std::optional<double> kv_utilization_cap{};
  std::string_view kv_purpose = "";

  // Sleep mode (§4.2): before a checkpoint, discard the KV arena so only
  // the weights are dirty; wake re-initializes the pool after a restore.
  // No value = no sleep mode.
  std::optional<SleepCosts> sleep_mode{};

  // Unload/load the model while the server stays up (Ollama's own idle
  // eviction), at this cost of freeing its contexts. No value = the model
  // stays loaded while the server runs.
  std::optional<sim::SimDuration> unload{};

  SwapModels h100;
  SwapModels a100;

  Bytes ResidentBytes(const ModelSpec& model) const;
};

const EngineProfile& ProfileFor(EngineKind kind);
// The row whose name or alias is `name`; nullptr when none is.
const EngineProfile* FindEngineProfile(std::string_view name);

}  // namespace swapserve::model
