#include "engine/ollama_engine.h"

#include <utility>

#include "sim/combinators.h"

namespace swapserve::engine {
namespace {

bool IsA100(const hw::GpuSpec& spec) {
  return spec.name.find("A100") != std::string::npos;
}

}  // namespace

OllamaEngine::OllamaEngine(EngineEnv env, model::ModelSpec model,
                           EngineOptions options, std::string backend_name)
    : InferenceEngine(EngineKind::kOllama, env, std::move(model), options,
                      std::move(backend_name)) {}

sim::Task<sim::SimDuration> OllamaEngine::TransferWeightsIn() {
  const sim::SimTime start = sim().Now();
  // The GGUF read and the H2D copy are pipelined: total time is the
  // slower of the two paths (mmap'd pages stream straight into the copy
  // engine). The copy estimate is queue-aware: setup latency and bytes
  // already in flight on the H2D channel delay us too.
  const sim::SimDuration h2d_time =
      gpu().pcie().h2d().EstimatedTransferTime(model_.WeightBytes());
  co_await sim::WhenAll(
      sim(),
      storage().ReadSharded(model_.WeightBytes(), model_.ShardCount()),
      sim::DelayFor(sim(), h2d_time) /* copy engine */);
  co_return sim().Now() - start;
}

sim::Task<Result<InitBreakdown>> OllamaEngine::InitializeEngine() {
  // Runner spawn + GGUF header parse + context allocation.
  co_await sim().Delay(model::OllamaModelInitFixed());
  const sim::SimDuration load_time = co_await TransferWeightsIn();

  Status alloc =
      AllocateSharded(model::OllamaResidentBytes(model_), "weights+ctx");
  if (!alloc.ok()) co_return alloc;
  model_loaded_ = true;

  co_return InitBreakdown{
      .container_start = sim::SimDuration(0),
      .weight_load = load_time,
      .compile = sim::SimDuration(0),
      .cuda_graphs = sim::SimDuration(0),
      .other = model::OllamaModelInitFixed(),
  };
}

Bytes OllamaEngine::DirtyBytes() const {
  // No sleep-mode equivalent: the whole resident set must round-trip.
  return model_loaded_ ? model::OllamaResidentBytes(model_) : Bytes(0);
}

model::CheckpointModel OllamaEngine::CheckpointCharacteristics() const {
  return IsA100(gpu().spec()) ? model::DefaultCheckpointA100()
                              : model::DefaultCheckpointH100();
}

model::RestoreModel OllamaEngine::RestoreCharacteristics() const {
  return IsA100(gpu().spec()) ? model::OllamaRestoreA100()
                              : model::OllamaRestoreH100();
}

sim::Task<Status> OllamaEngine::UnloadModel() {
  if (state() != BackendState::kRunning) {
    co_return FailedPrecondition("unload: backend " + name_ + " is " +
                                 std::string(BackendStateName(state())));
  }
  if (!model_loaded_) co_return Status::Ok();
  if (active_requests_ > 0) {
    co_return FailedPrecondition("unload: backend " + name_ +
                                 " has active requests");
  }
  co_await sim().Delay(sim::Millis(350));  // free llama.cpp contexts
  for (hw::GpuDevice* dev : Gpus()) dev->FreeAllOwnedBy(name_);
  model_loaded_ = false;
  co_return Status::Ok();
}

sim::Task<Status> OllamaEngine::LoadModel() {
  if (state() != BackendState::kRunning) {
    co_return FailedPrecondition("load: backend " + name_ + " is " +
                                 std::string(BackendStateName(state())));
  }
  if (model_loaded_) co_return Status::Ok();
  co_await sim().Delay(model::OllamaModelInitFixed());
  co_await TransferWeightsIn();
  Status alloc =
      AllocateSharded(model::OllamaResidentBytes(model_), "weights+ctx");
  if (!alloc.ok()) co_return alloc;
  model_loaded_ = true;
  co_return Status::Ok();
}

}  // namespace swapserve::engine
