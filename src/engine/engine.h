// Inference-engine backend.
//
// A backend is one (engine, model) pair running in its own container — the
// unit SwapServeLLM hot-swaps. The class owns the container, the
// cuda-checkpoint process handle, and the GPU allocation bookkeeping. The
// engines (vLLM, Ollama, SGLang, TensorRT-LLM) differ only in data: each
// reads its model::EngineProfile row (src/model/calibration.h) for its
// initialization pipeline, memory policy, sleep mode, token-generation
// efficiency and checkpoint characteristics.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ckpt/cuda_checkpoint.h"
#include "container/container.h"
#include "engine/token_stream.h"
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
  // SSE token streaming (§16): when set, the decode's schedule in chunks
  // of `stream_chunk_tokens` goes to this sink once, and its reader walks
  // it. The engine sleeps once per request either way.
  TokenSink* stream = nullptr;
  std::int64_t stream_chunk_tokens = 16;
};

struct GenerationResult {
  std::int64_t prompt_tokens = 0;
  std::int64_t output_tokens = 0;
  sim::SimDuration time_to_first_token;
  sim::SimDuration total_time;
};

class InferenceEngine final {
 public:
  // A backend named `backend_name` that reads `profile`, one of the static
  // rows in model/calibration.cpp, and owns its container (created, not yet
  // booted). Does not start anything; call ColdStart() or
  // AdoptCheckpoint().
  InferenceEngine(const model::EngineProfile& profile, EngineEnv env,
                  model::ModelSpec model, EngineOptions options,
                  std::string backend_name);
  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  const model::EngineProfile& profile() const { return profile_; }
  std::string_view kind_name() const { return profile_.name; }

  const model::ModelSpec& model() const { return model_; }
  const std::string& name() const { return name_.str(); }
  // The name interned once, at construction: the owner of the engine's GPU
  // allocations and snapshots, compared by handle.
  Name owner() const { return name_; }
  BackendState state() const { return state_; }
  container::Container& container() { return container_; }
  ckpt::CudaCheckpointProcess& process() { return process_; }
  const EngineOptions& options() const { return options_; }

  // Boot the container and run the full cold start. Valid once, from
  // kUninitialized.
  sim::Task<Result<InitBreakdown>> ColdStart();

  // Cluster standby bring-up: instead of cold-starting, adopt a checkpoint
  // replicated from this model's home node. Moves the container straight to
  // the paused state, marks the process checkpointed, and replays the memory
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
  // checkpoint handle. Each sleeping Generate is moved to where a
  // per-phase, per-chunk decode would have found the epoch changed: its
  // prefill end if that has not passed, else its first streamed chunk not
  // yet out (the stream is cut there), else its end. The engine
  // controller brings it back on its next request, under the scheduler's
  // reservation: from the snapshot if one survived (ReadoptCheckpoint),
  // else by Restart.
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
  // restore may simply re-reserve. Sleep mode moves the KV arena from the
  // former to the latter.
  Bytes DirtyBytes() const;
  Bytes CleanBytes() const;
  Bytes GpuResidentBytes() const { return DirtyBytes() + CleanBytes(); }

  // Pre-checkpoint optimization (§4.2): with sleep mode on, a row that has
  // it discards the KV arena and pins the weights, shrinking the snapshot;
  // AfterRestore wakes it.
  sim::Task<Status> PrepareForCheckpoint();
  sim::Task<Status> AfterRestore();
  bool sleeping() const { return sleeping_; }

  // Checkpoint/restore timing for this engine on this GPU's family.
  model::CheckpointModel CheckpointCharacteristics() const {
    return swap_models_.checkpoint;
  }
  model::RestoreModel RestoreCharacteristics() const {
    return swap_models_.restore;
  }

  // Unload the model from GPU memory, keeping the server alive (Ollama's
  // own idle eviction); loading again pays the setup and weight path.
  // FailedPrecondition for a row that cannot unload.
  sim::Task<Status> UnloadModel();
  sim::Task<Status> LoadModel();
  bool model_loaded() const { return weights_loaded_; }

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

 private:
  // Runs the row's init phases after the container is up: allocates GPU
  // memory (owner = name()) and fills the breakdown fields other than
  // container_start.
  sim::Task<Result<InitBreakdown>> InitializeEngine();
  // The row's setup phase, weight path and resident-set allocation, shared
  // by cold start and LoadModel. Returns the weight-load time to report.
  sim::Task<Result<sim::SimDuration>> LoadWeights(model::InitPhases phases);
  // The KV arena the row claims on this device group; initialize and adopt
  // both size it here.
  Bytes KvArenaBytes() const;

  sim::Simulation& sim() { return *env_.sim; }
  hw::GpuDevice& gpu() { return *env_.gpu; }
  const hw::GpuDevice& gpu() const { return *env_.gpu; }
  hw::StorageDevice& storage() { return *env_.storage; }

  // One Generate asleep on its single timer, linked while it sleeps:
  // what MarkCrashed moves.
  struct Sleeper {
    sim::Simulation::DelayAwaiter* timer;
    sim::SimTime first_token_at;
    sim::SimTime end;
    TokenSink* stream;
    Sleeper* prev = nullptr;
    Sleeper* next = nullptr;
  };
  void Track(Sleeper& s);
  void Untrack(Sleeper& s);

  // The only writer of state_: calls the residency handler.
  void SetState(BackendState to);

  // Allocate `total` split evenly across the TP group (all-or-nothing:
  // rolls back partial shard allocations on failure).
  Status AllocateSharded(Bytes total, std::string_view purpose);

  const model::EngineProfile& profile_;
  EngineEnv env_;
  model::ModelSpec model_;
  EngineOptions options_;
  Name name_;
  BackendState state_ = BackendState::kUninitialized;
  container::Container container_;
  ckpt::CudaCheckpointProcess process_;
  fault::FaultInjector* fault_ = nullptr;
  std::function<void()> on_residency_;
  const model::SwapModels& swap_models_;  // the row's, for this GPU family
  Bytes kv_arena_{0};  // preallocated KV arena; 0 for a row without one
  bool sleeping_ = false;
  // A row that cannot unload counts its weights as loaded from
  // construction on, so a backend that crashes mid-boot still re-reserves
  // them; Ollama's counts them only once they are in HBM.
  bool weights_loaded_;

  int active_requests_ = 0;
  std::uint64_t total_requests_ = 0;
  std::uint64_t restart_epoch_ = 0;
  std::uint64_t crash_count_ = 0;
  // Sleeping Generates, oldest first.
  Sleeper* sleepers_head_ = nullptr;
  Sleeper* sleepers_tail_ = nullptr;
};

}  // namespace swapserve::engine
