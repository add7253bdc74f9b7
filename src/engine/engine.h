// Inference-engine backend interface.
//
// A backend is one (engine, model) pair running in its own container — the
// unit SwapServeLLM hot-swaps. The base class owns the container, the
// cuda-checkpoint process handle, and the GPU allocation bookkeeping;
// concrete engines (vLLM, Ollama, SGLang, TensorRT-LLM) supply their
// initialization pipeline, memory policy, token-generation timing, and
// checkpoint characteristics.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ckpt/cuda_checkpoint.h"
#include "container/runtime.h"
#include "fault/fault_injector.h"
#include "hw/gpu_device.h"
#include "hw/link.h"
#include "model/calibration.h"
#include "model/model_spec.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "util/name.h"
#include "util/status.h"

namespace swapserve::engine {

enum class EngineKind { kVllm, kOllama, kSglang, kTrtllm };

std::string_view EngineKindName(EngineKind k);   // "vllm", "ollama", ...
std::string EngineImageName(EngineKind k);       // default container image

enum class BackendState {
  kUninitialized,  // container created, nothing started
  kInitializing,   // cold start in progress
  kRunning,        // serving (resident in GPU memory)
  kSwappedOut,     // checkpointed; container paused
  kSwapping,       // swap-in/out transition in progress
  kCrashed,        // engine process died; restored on its next request
  kStopped,
};

std::string_view BackendStateName(BackendState s);

// Everything an engine needs from the simulated machine.
struct EngineEnv {
  sim::Simulation* sim = nullptr;
  hw::GpuDevice* gpu = nullptr;
  hw::StorageDevice* storage = nullptr;  // where model weights live
  container::ContainerRuntime* runtime = nullptr;
  // Tensor-parallel group (§6). Empty = single-GPU backend on `gpu` (the
  // engine stores it as a one-element group); otherwise must contain `gpu`
  // as rank 0, and weights/KV shard evenly across the group.
  std::vector<hw::GpuDevice*> tp_group;
};

struct EngineOptions {
  // vLLM-style fraction of HBM to claim (weights + preallocated KV arena).
  double gpu_memory_utilization = 0.9;
  // Enable the engine's pre-checkpoint optimization (vLLM sleep mode).
  bool sleep_mode = true;
  // Skip torch.compile / CUDA-graph capture (vLLM eager mode; trades
  // cold-start latency for throughput — the §2.2 tradeoff).
  bool enforce_eager = false;
};

// Cold-start phase breakdown (Fig. 2 / Table 1 structure).
struct InitBreakdown {
  sim::SimDuration container_start;  // podman create+start + entrypoint
  sim::SimDuration weight_load;
  sim::SimDuration compile;          // torch.compile / TRT engine build
  sim::SimDuration cuda_graphs;
  sim::SimDuration other;            // tokenizer, KV alloc, warm-up

  sim::SimDuration Total() const {
    return container_start + weight_load + compile + cuda_graphs + other;
  }
};

struct GenerationRequest {
  std::int64_t prompt_tokens = 0;
  std::int64_t output_tokens = 0;  // pre-sampled ground-truth length
  double temperature = 0.0;        // paper sets 0 for determinism
  std::uint64_t seed = 0;
  // SSE token streaming (§16): when set, the decode phase is split into
  // chunks of `stream_chunk_tokens` tokens and the callback fires after
  // each chunk's delay elapses. When null (the default) decode stays one
  // event, so non-streaming schedules are byte-identical to older builds.
  // Callers keep the callable to one pointer of captures, so it fits
  // std::function's inline buffer and a streamed request does not
  // allocate for it.
  std::function<void(std::int64_t tokens)> on_tokens = nullptr;
  std::int64_t stream_chunk_tokens = 16;
};

struct GenerationResult {
  std::int64_t prompt_tokens = 0;
  std::int64_t output_tokens = 0;
  sim::SimDuration time_to_first_token;
  sim::SimDuration total_time;
};

class InferenceEngine {
 public:
  InferenceEngine(EngineKind kind, EngineEnv env, model::ModelSpec model,
                  EngineOptions options, std::string backend_name);
  virtual ~InferenceEngine() = default;
  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  EngineKind kind() const { return kind_; }
  std::string_view kind_name() const { return EngineKindName(kind()); }

  const model::ModelSpec& model() const { return model_; }
  const std::string& name() const { return name_.str(); }
  // The name interned once, at construction: the owner of the engine's GPU
  // allocations and snapshots, compared by handle.
  Name owner() const { return name_; }
  BackendState state() const { return state_; }
  container::Container* container() { return container_; }
  ckpt::CudaCheckpointProcess& process() { return process_; }
  const EngineOptions& options() const { return options_; }

  // Create the container and run the full cold start. Valid once, from
  // kUninitialized.
  sim::Task<Result<InitBreakdown>> ColdStart();

  // Cluster standby bring-up: instead of cold-starting, adopt a checkpoint
  // replicated from this model's home node. Creates the container in the
  // paused state, marks the process checkpointed, and replays the memory
  // accounting InitializeEngine + PrepareForCheckpoint would have left
  // behind, ending in kSwappedOut. Costs zero virtual time — the boot was
  // paid on the home node, the restore is paid at swap-in. Valid once,
  // from kUninitialized.
  [[nodiscard]] Status AdoptCheckpoint();

  // Serve one request; valid while kRunning. Concurrent calls batch.
  sim::Task<Result<GenerationResult>> Generate(GenerationRequest req);

  // --- crash/recovery interface -----------------------------------------
  // The engine process died (injected crash, declared-dead hang, or node
  // power loss). Frees all device memory the driver held for it, aborts
  // in-flight Generate coroutines via the restart epoch, and resets the
  // checkpoint handle. The engine controller brings it back on its next
  // request, under the scheduler's reservation: from the snapshot if one
  // survived (ReadoptCheckpoint), else by Restart.
  void MarkCrashed(std::string_view reason);

  // Re-initialize after a crash (weights reload inside the existing
  // container). Valid from kCrashed; kRunning on success, back to kCrashed
  // on failure (the scheduler retries).
  sim::Task<Result<InitBreakdown>> Restart();

  // A crash that landed mid-restore left the checkpoint intact and the
  // container frozen: the backend is swapped out again, and the usual
  // restore brings it back. Valid from kCrashed with a paused container.
  [[nodiscard]] Status ReadoptCheckpoint();

  // Bumped by MarkCrashed; lets stale Generate coroutines detect that the
  // process they were running in no longer exists.
  std::uint64_t restart_epoch() const { return restart_epoch_; }
  std::uint64_t crash_count() const { return crash_count_; }

  // Called when the engine enters or leaves kRunning — the changes that
  // move idle deadlines and live copy counts. The engine controller binds
  // it when the backend is registered.
  void BindResidencyHandler(std::function<void()> h) {
    on_residency_ = std::move(h);
  }

  // Nullable. Fault points: "engine.crash" (Generate aborts and the
  // backend transitions to kCrashed), "engine.hang" (Generate stalls for
  // the rule's stall_s, then proceeds unless the engine crashed meanwhile).
  void BindFaultInjector(fault::FaultInjector* injector) {
    fault_ = injector;
  }

  // --- hot-swap interface (driven by the engine controller) -------------
  // GPU pages whose contents must round-trip through host RAM, vs pages a
  // restore may simply re-reserve. Sleep-mode engines shrink the former.
  virtual Bytes DirtyBytes() const = 0;
  virtual Bytes CleanBytes() const = 0;
  Bytes GpuResidentBytes() const { return DirtyBytes() + CleanBytes(); }

  // Engine-specific pre-checkpoint optimization (§4.2): vLLM's sleep API
  // discards the KV arena and pins weights, shrinking the snapshot.
  virtual sim::Task<Status> PrepareForCheckpoint() {
    co_return Status::Ok();
  }
  virtual sim::Task<Status> AfterRestore() { co_return Status::Ok(); }

  // Checkpoint/restore timing characteristics for this engine on this GPU.
  virtual model::CheckpointModel CheckpointCharacteristics() const = 0;
  virtual model::RestoreModel RestoreCharacteristics() const = 0;

  // State transitions used by the controller. MarkSwapping guards against
  // double-swaps; the controller owns the locking discipline above this.
  Status MarkSwapping();
  Status MarkSwappedOut();
  Status MarkRunning();

  int active_requests() const { return active_requests_; }
  std::uint64_t total_requests() const { return total_requests_; }

  // The device group this backend occupies (size 1 unless tensor-parallel).
  std::span<hw::GpuDevice* const> Gpus() const { return env_.tp_group; }
  int tp_degree() const { return static_cast<int>(env_.tp_group.size()); }

 protected:
  // Engine-specific initialization after the container is up. Must
  // allocate GPU memory (owner = name()) and fill the breakdown fields
  // other than container_start.
  virtual sim::Task<Result<InitBreakdown>> InitializeEngine() = 0;

  // Replay the host-side accounting (KV arena size, sleep flag, load
  // markers) a checkpointed instance of this engine carries, without
  // touching device memory. Called by AdoptCheckpoint; must leave
  // DirtyBytes/CleanBytes matching what a home-node swap-out of the same
  // model produced, so the adopted snapshot's byte counts line up.
  virtual void AdoptEngineState() {}

  sim::Simulation& sim() { return *env_.sim; }
  hw::GpuDevice& gpu() { return *env_.gpu; }
  const hw::GpuDevice& gpu() const { return *env_.gpu; }
  hw::StorageDevice& storage() { return *env_.storage; }

  // The only writer of state_: calls the residency handler.
  void SetState(BackendState to);

  // Allocate `total` split evenly across the TP group (all-or-nothing:
  // rolls back partial shard allocations on failure).
  Status AllocateSharded(Bytes total, std::string_view purpose);

  const EngineKind kind_;
  EngineEnv env_;
  model::ModelSpec model_;
  EngineOptions options_;
  Name name_;
  BackendState state_ = BackendState::kUninitialized;
  container::Container* container_ = nullptr;  // owned by the runtime
  ckpt::CudaCheckpointProcess process_;
  fault::FaultInjector* fault_ = nullptr;
  std::function<void()> on_residency_;
  // model::Engine{Prefill,Decode}Efficiency for kind_, resolved once.
  const double prefill_efficiency_;
  const double decode_efficiency_;

  int active_requests_ = 0;
  std::uint64_t total_requests_ = 0;
  std::uint64_t restart_epoch_ = 0;
  std::uint64_t crash_count_ = 0;
};

}  // namespace swapserve::engine
