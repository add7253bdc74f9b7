#include "baseline/coldstart.h"

#include <utility>

#include "util/log.h"

namespace swapserve::baseline {

ColdStartServing::ColdStartServing(sim::Simulation& sim, hw::GpuDevice& gpu,
                                   hw::StorageDevice& storage,
                                   container::ContainerRuntime& runtime,
                                   engine::EngineKind kind,
                                   sim::SimDuration keepalive)
    : sim_(sim),
      gpu_(gpu),
      storage_(storage),
      runtime_(runtime),
      kind_(kind),
      keepalive_(keepalive) {}

void ColdStartServing::RegisterModel(model::ModelSpec model) {
  Slot slot;
  slot.model = model;
  slot.starting = std::make_unique<sim::SimMutex>(sim_, "coldstart:" + model.id);
  slots_.emplace(model.id, std::move(slot));
}

bool ColdStartServing::IsWarm(const std::string& model_id) const {
  auto it = slots_.find(model_id);
  return it != slots_.end() && it->second.engine != nullptr &&
         it->second.engine->state() == engine::BackendState::kRunning;
}

ColdStartServing::Slot* ColdStartServing::LruWarmExcept(
    const std::string& model_id) {
  Slot* lru = nullptr;
  for (auto& [id, slot] : slots_) {
    if (id == model_id || slot.engine == nullptr) continue;
    if (slot.engine->state() != engine::BackendState::kRunning) continue;
    if (slot.engine->active_requests() > 0) continue;
    if (lru == nullptr || slot.last_used < lru->last_used) lru = &slot;
  }
  return lru;
}

// swaplint-ok(coro-ref-param): slot borrows from slots_ (outlives frame)
sim::Task<Status> ColdStartServing::Teardown(Slot& slot) {
  SWAP_CHECK(slot.engine != nullptr);
  Status s = co_await slot.engine->container()->Stop();
  if (!s.ok()) co_return s;
  gpu_.FreeAllOwnedBy(slot.engine->owner());
  SWAP_CHECK(runtime_.Remove(slot.engine->container()->name()).ok());
  slot.engine.reset();
  ++teardowns_;
  co_return Status::Ok();
}

// swaplint-ok(coro-ref-param): slot borrows from slots_ (outlives frame)
sim::Task<Status> ColdStartServing::EnsureWarm(Slot& slot) {
  // Serialize concurrent cold starts per model.
  auto guard = co_await slot.starting->Acquire();
  if (slot.engine != nullptr &&
      slot.engine->state() == engine::BackendState::kRunning) {
    co_return Status::Ok();
  }

  // Make room: stop LRU warm engines until the estimated footprint fits.
  // vLLM-style engines claim most of the GPU, so usually everything else
  // must go.
  const Bytes want = kind_ == engine::EngineKind::kOllama
                         ? model::OllamaResidentBytes(slot.model)
                         : Bytes(static_cast<std::int64_t>(
                               static_cast<double>(gpu_.capacity().count()) *
                               0.9));
  while (gpu_.free() < want) {
    Slot* lru = LruWarmExcept(slot.model.id);
    if (lru == nullptr) {
      co_return ResourceExhausted("no evictable engine to make room for " +
                                  slot.model.id);
    }
    // Holding 'starting' here is the point: it serializes cold starts for
    // this model while we evict. Teardown only touches the victim slot's
    // engine and never acquires any 'starting' mutex, so no re-entry.
    // swaplint-ok(guard-across-await): eviction is part of the serialized
    // swaplint-ok(guard-across-await): cold-start critical section
    SWAP_CO_RETURN_IF_ERROR(co_await Teardown(*lru));
  }

  ++slot.instance;
  engine::EngineEnv env{
      .sim = &sim_,
      .gpu = &gpu_,
      .storage = &storage_,
      .runtime = &runtime_,
      .tp_group = {},
  };
  slot.engine = engine::CreateEngine(
      kind_, env, slot.model, engine::EngineOptions{},
      "serverless-" + slot.model.id + "-" + std::to_string(slot.instance));
  Result<engine::InitBreakdown> init = co_await slot.engine->ColdStart();
  if (!init.ok()) {
    slot.engine.reset();
    co_return init.status();
  }
  ++cold_starts_;
  SWAP_LOG(kInfo, "coldstart-baseline")
      << slot.model.id << " cold-started in " << init->Total().ToString();
  co_return Status::Ok();
}

sim::Task<> ColdStartServing::ReapIdle() {
  for (auto& [id, slot] : slots_) {
    if (slot.engine == nullptr) continue;
    if (slot.engine->state() != engine::BackendState::kRunning) continue;
    if (slot.engine->active_requests() > 0) continue;
    if (sim_.Now() - slot.last_used >= keepalive_) {
      SWAP_WARN_IF_ERROR(co_await Teardown(slot), "coldstart-baseline");
    }
  }
}

sim::Task<core::ChatResult> ColdStartServing::Chat(
    std::string model_id, std::int64_t prompt_tokens,
    std::int64_t max_tokens) {
  core::ChatResult result;
  auto it = slots_.find(model_id);
  if (it == slots_.end()) {
    result.error = "model " + model_id + " not registered";
    co_return result;
  }
  Slot& slot = it->second;
  const double arrival = sim_.Now().ToSeconds();

  Status warm = co_await EnsureWarm(slot);
  core::ModelMetrics& mm = metrics_.ForModel(model_id);
  if (!warm.ok()) {
    ++mm.failed;
    result.error = warm.ToString();
    co_return result;
  }
  const double swap_wait = sim_.Now().ToSeconds() - arrival;

  slot.last_used = sim_.Now();
  Result<engine::GenerationResult> gen = co_await slot.engine->Generate(
      engine::GenerationRequest{.prompt_tokens = prompt_tokens,
                                .output_tokens = max_tokens});
  if (!gen.ok()) {
    ++mm.failed;
    result.error = gen.status().ToString();
    co_return result;
  }
  slot.last_used = sim_.Now();

  result.ok = true;
  result.output_tokens = gen->output_tokens;
  result.ttft_s = swap_wait + gen->time_to_first_token.ToSeconds();
  result.total_s = sim_.Now().ToSeconds() - arrival;
  result.swap_wait_s = swap_wait;
  ++mm.completed;
  mm.output_tokens += gen->output_tokens;
  mm.ttft_s.Add(result.ttft_s);
  mm.swap_wait_s.Add(swap_wait);
  co_return result;
}

}  // namespace swapserve::baseline
