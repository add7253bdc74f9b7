#include "engine/sglang_engine.h"

#include <algorithm>
#include <utility>

namespace swapserve::engine {

SglangEngine::SglangEngine(EngineEnv env, model::ModelSpec model,
                           EngineOptions options, std::string backend_name)
    : InferenceEngine(EngineKind::kSglang, env, std::move(model), options,
                      std::move(backend_name)) {}

sim::Task<Result<InitBreakdown>> SglangEngine::InitializeEngine() {
  // Weight load: same physical path as vLLM.
  const sim::SimTime load_start = sim().Now();
  co_await storage().ReadSharded(model_.WeightBytes(), model_.ShardCount());
  co_await sim().Delay(sim::Seconds(0.4));  // H2D + tensor placement
  const sim::SimDuration load_time = sim().Now() - load_start;

  Status weights = AllocateSharded(model_.WeightBytes(), "weights");
  if (!weights.ok()) co_return weights;

  // Lighter CUDA-graph capture (decode graphs only) + scheduler warm-up.
  // Fitted to Fig. 2's 21.7 s total for LLaMA-3.1-8B.
  const double p = model_.params_billion;
  const sim::SimDuration cuda_graphs = sim::Seconds(2.0 + 0.25 * p);
  const sim::SimDuration other = sim::Seconds(1.3 + 0.12 * p);
  co_await sim().Delay(cuda_graphs);
  co_await sim().Delay(other);

  // Claim the RadixAttention KV pool (mem-fraction-static, default 0.87).
  const auto target = Bytes(static_cast<std::int64_t>(
      static_cast<double>(gpu().capacity().count()) *
      std::min(options_.gpu_memory_utilization, 0.87) * tp_degree()));
  const Bytes pool = std::max(Bytes(0), target - model_.WeightBytes());
  Status kv = AllocateSharded(pool, "kv-pool");
  if (!kv.ok()) co_return kv;
  kv_pool_ = pool;

  co_return InitBreakdown{
      .container_start = sim::SimDuration(0),
      .weight_load = load_time,
      .compile = sim::SimDuration(0),
      .cuda_graphs = cuda_graphs,
      .other = other,
  };
}

void SglangEngine::AdoptEngineState() {
  // Mirror InitializeEngine's pool sizing so the adopted snapshot's byte
  // counts match a home-node swap-out of the same model.
  const auto target = Bytes(static_cast<std::int64_t>(
      static_cast<double>(gpu().capacity().count()) *
      std::min(options_.gpu_memory_utilization, 0.87) * tp_degree()));
  kv_pool_ = std::max(Bytes(0), target - model_.WeightBytes());
}

Bytes SglangEngine::DirtyBytes() const {
  // No sleep-mode integration: weights and the KV pool all checkpoint.
  return model_.WeightBytes() + kv_pool_;
}

model::CheckpointModel SglangEngine::CheckpointCharacteristics() const {
  return model::DefaultCheckpointH100();
}

model::RestoreModel SglangEngine::RestoreCharacteristics() const {
  // Restores at plain copy bandwidth for every page (no clean pages).
  return model::OllamaRestoreH100();
}

}  // namespace swapserve::engine
