#include "baseline/ollama_lru.h"

#include <utility>

namespace swapserve::baseline {

OllamaLruServing::OllamaLruServing(sim::Simulation& sim, hw::GpuDevice& gpu,
                                   hw::StorageDevice& model_storage)
    : sim_(sim), gpu_(gpu), storage_(model_storage) {}

sim::Task<Status> OllamaLruServing::Initialize(
    std::vector<model::ModelSpec> models) {
  for (const model::ModelSpec& m : models) {
    engine::EngineEnv env{
        .sim = &sim_,
        .gpu = &gpu_,
        .storage = &storage_,
        .tp_group = {},
    };
    Runner runner;
    runner.engine = std::make_unique<engine::InferenceEngine>(
        model::ProfileFor(model::EngineKind::kOllama), env, m,
        engine::EngineOptions{}, "ollama-" + m.id);
    runner.loading = std::make_unique<sim::SimMutex>(sim_, "ollama-load:" + m.id);
    Result<engine::InitBreakdown> init = co_await runner.engine->ColdStart();
    if (!init.ok()) co_return init.status();
    // Start cold: subsequent loads are pure on-demand loads.
    SWAP_CO_RETURN_IF_ERROR(co_await runner.engine->UnloadModel());
    runners_.emplace(m.id, std::move(runner));
  }
  co_return Status::Ok();
}

bool OllamaLruServing::IsLoaded(const std::string& model_id) const {
  auto it = runners_.find(model_id);
  return it != runners_.end() && it->second.engine->model_loaded();
}

OllamaLruServing::Runner* OllamaLruServing::LruLoadedExcept(
    const std::string& model_id) {
  Runner* lru = nullptr;
  for (auto& [id, runner] : runners_) {
    if (id == model_id || !runner.engine->model_loaded()) continue;
    if (lru == nullptr || runner.last_used < lru->last_used) lru = &runner;
  }
  return lru;
}

sim::Task<Status> OllamaLruServing::EnsureLoaded(std::string model_id) {
  auto it = runners_.find(model_id);
  if (it == runners_.end()) co_return NotFound("runner for " + model_id);
  Runner& runner = it->second;

  auto guard = co_await runner.loading->Acquire();
  runner.last_used = sim_.Now();
  if (runner.engine->model_loaded()) co_return Status::Ok();

  // The Ollama scheduler unloads LRU runners until the model fits (§2.3).
  const Bytes want =
      runner.engine->profile().ResidentBytes(runner.engine->model());
  while (gpu_.free() < want) {
    Runner* lru = LruLoadedExcept(model_id);
    if (lru == nullptr) {
      co_return ResourceExhausted("cannot fit " + model_id +
                                  ": no idle runner to unload");
    }
    // Holding 'loading' across the eviction is the point: it serializes
    // load attempts for this model. UnloadModel acts on a different runner
    // and never touches any 'loading' mutex, so no re-entry.
    // swaplint-ok(guard-across-await): eviction is part of the serialized
    // swaplint-ok(guard-across-await): load critical section
    SWAP_CO_RETURN_IF_ERROR(co_await lru->engine->UnloadModel());
    ++evictions_;
  }
  co_return co_await runner.engine->LoadModel();
}

sim::Task<Status> OllamaLruServing::Unload(std::string model_id) {
  auto it = runners_.find(model_id);
  if (it == runners_.end()) co_return NotFound("runner for " + model_id);
  co_return co_await it->second.engine->UnloadModel();
}

sim::Task<Result<sim::SimDuration>> OllamaLruServing::MeasureLoad(
    std::string model_id) {
  SWAP_CO_RETURN_IF_ERROR(co_await Unload(model_id));
  const sim::SimTime t0 = sim_.Now();
  SWAP_CO_RETURN_IF_ERROR(co_await EnsureLoaded(model_id));
  co_return sim_.Now() - t0;
}

}  // namespace swapserve::baseline
