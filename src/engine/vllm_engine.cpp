#include "engine/vllm_engine.h"

#include <algorithm>
#include <utility>

namespace swapserve::engine {

VllmEngine::VllmEngine(EngineEnv env, model::ModelSpec model,
                       EngineOptions options, std::string backend_name)
    : InferenceEngine(EngineKind::kVllm, env, std::move(model), options,
                      std::move(backend_name)) {}

sim::Task<Result<InitBreakdown>> VllmEngine::InitializeEngine() {
  model::VllmInitPhases phases = model::VllmInitModel(
      model_, storage().link().bandwidth());
  if (options_.enforce_eager) {
    // --enforce-eager skips torch.compile and CUDA-graph capture entirely.
    phases.compile = sim::SimDuration(0);
    phases.cuda_graphs = sim::SimDuration(0);
  }

  // Weight load: sharded safetensors stream from storage, then resident in
  // HBM. The physical read uses the storage link (so concurrent cold
  // starts contend); the calibrated duration covers H2D + dequant cost.
  const sim::SimTime load_start = sim().Now();
  co_await storage().ReadSharded(model_.WeightBytes(), model_.ShardCount());
  const sim::SimDuration read_time = sim().Now() - load_start;
  if (phases.weight_load > read_time) {
    co_await sim().Delay(phases.weight_load - read_time);
  }

  Status weights = AllocateSharded(model_.WeightBytes(), "weights");
  if (!weights.ok()) co_return weights;

  // torch.compile + CUDA-graph capture + misc engine init.
  co_await sim().Delay(phases.compile);
  co_await sim().Delay(phases.cuda_graphs);
  co_await sim().Delay(phases.other);

  // Claim the paged-KV arena up to gpu_memory_utilization * HBM on every
  // GPU in the tensor-parallel group.
  const auto target = Bytes(static_cast<std::int64_t>(
      static_cast<double>(gpu().capacity().count()) *
      options_.gpu_memory_utilization * tp_degree()));
  const Bytes arena =
      std::max(Bytes(0), target - model_.WeightBytes());
  Status kv = AllocateSharded(arena, "kv-arena");
  if (!kv.ok()) co_return kv;
  kv_arena_ = arena;

  co_return InitBreakdown{
      .container_start = sim::SimDuration(0),  // filled by ColdStart
      .weight_load = phases.weight_load,
      .compile = phases.compile,
      .cuda_graphs = phases.cuda_graphs,
      .other = phases.other,
  };
}

void VllmEngine::AdoptEngineState() {
  // The replicated checkpoint was taken after PrepareForCheckpoint on the
  // home node: the KV arena is sized exactly as InitializeEngine would
  // size it, and the sleep flag matches the home engine's at swap-out.
  const auto target = Bytes(static_cast<std::int64_t>(
      static_cast<double>(gpu().capacity().count()) *
      options_.gpu_memory_utilization * tp_degree()));
  kv_arena_ = std::max(Bytes(0), target - model_.WeightBytes());
  sleeping_ = options_.sleep_mode;
}

Bytes VllmEngine::DirtyBytes() const {
  // Asleep: only the weights hold state. Awake: the KV arena contents
  // (paged blocks + CUDA graph pools) would have to be checkpointed too.
  return sleeping_ ? model_.WeightBytes()
                   : model_.WeightBytes() + kv_arena_;
}

Bytes VllmEngine::CleanBytes() const {
  return sleeping_ ? kv_arena_ : Bytes(0);
}

sim::Task<Status> VllmEngine::PrepareForCheckpoint() {
  if (!options_.sleep_mode) co_return Status::Ok();
  if (sleeping_) co_return Status::Ok();
  // vLLM sleep level 1: discard KV blocks, tag weight pages. In-flight
  // requests have already drained (the controller write-locks first).
  co_await sim().Delay(sim::Millis(180));
  sleeping_ = true;
  co_return Status::Ok();
}

sim::Task<Status> VllmEngine::AfterRestore() {
  if (!sleeping_) co_return Status::Ok();
  // wake_up(): re-initialize the paged-KV pool over the remapped arena.
  co_await sim().Delay(sim::Millis(120));
  sleeping_ = false;
  co_return Status::Ok();
}

model::CheckpointModel VllmEngine::CheckpointCharacteristics() const {
  return model::DefaultCheckpointH100();
}

model::RestoreModel VllmEngine::RestoreCharacteristics() const {
  return model::VllmRestoreH100();
}

}  // namespace swapserve::engine
