#include "engine/trtllm_engine.h"

#include <algorithm>
#include <utility>

namespace swapserve::engine {

TrtllmEngine::TrtllmEngine(EngineEnv env, model::ModelSpec model,
                           EngineOptions options, std::string backend_name)
    : InferenceEngine(EngineKind::kTrtllm, env, std::move(model), options,
                      std::move(backend_name)) {}

sim::Task<Result<InitBreakdown>> TrtllmEngine::InitializeEngine() {
  const sim::SimTime load_start = sim().Now();
  co_await storage().ReadSharded(model_.WeightBytes(), model_.ShardCount());
  co_await sim().Delay(sim::Seconds(0.5));
  const sim::SimDuration load_time = sim().Now() - load_start;

  Status weights = AllocateSharded(model_.WeightBytes(), "weights");
  if (!weights.ok()) co_return weights;

  // Engine build (kernel selection, tactic profiling, graph fusion).
  // Fitted to Fig. 2: 124 s total for LLaMA-3.1-8B with a ~24 s container
  // boot leaves ~100 s of build.
  const double p = model_.params_billion;
  const sim::SimDuration build = sim::Seconds(35.0 + 8.2 * p);
  co_await sim().Delay(build);
  const sim::SimDuration other = sim::Seconds(1.2 + 0.15 * p);
  co_await sim().Delay(other);

  const auto target = Bytes(static_cast<std::int64_t>(
      static_cast<double>(gpu().capacity().count()) *
      options_.gpu_memory_utilization * tp_degree()));
  const Bytes pool = std::max(Bytes(0), target - model_.WeightBytes());
  Status kv = AllocateSharded(pool, "kv-pool");
  if (!kv.ok()) co_return kv;
  kv_pool_ = pool;

  co_return InitBreakdown{
      .container_start = sim::SimDuration(0),
      .weight_load = load_time,
      .compile = build,
      .cuda_graphs = sim::SimDuration(0),
      .other = other,
  };
}

void TrtllmEngine::AdoptEngineState() {
  // Mirror InitializeEngine's pool sizing so the adopted snapshot's byte
  // counts match a home-node swap-out of the same model.
  const auto target = Bytes(static_cast<std::int64_t>(
      static_cast<double>(gpu().capacity().count()) *
      options_.gpu_memory_utilization * tp_degree()));
  kv_pool_ = std::max(Bytes(0), target - model_.WeightBytes());
}

Bytes TrtllmEngine::DirtyBytes() const {
  return model_.WeightBytes() + kv_pool_;
}

model::CheckpointModel TrtllmEngine::CheckpointCharacteristics() const {
  return model::DefaultCheckpointH100();
}

model::RestoreModel TrtllmEngine::RestoreCharacteristics() const {
  return model::OllamaRestoreH100();
}

}  // namespace swapserve::engine
