#include "baseline/dedicated.h"

#include <utility>

namespace swapserve::baseline {

DedicatedServing::DedicatedServing(sim::Simulation& sim,
                                   std::vector<Assignment> assignments,
                                   hw::StorageDevice& storage)
    : sim_(sim), assignments_(std::move(assignments)), storage_(storage) {}

sim::Task<Status> DedicatedServing::Initialize() {
  for (const Assignment& a : assignments_) {
    SWAP_CHECK(a.gpu != nullptr);
    engine::EngineEnv env{
        .sim = &sim_,
        .gpu = a.gpu,
        .storage = &storage_,
        .tp_group = {},
    };
    auto eng = std::make_unique<engine::InferenceEngine>(
        model::ProfileFor(a.kind), env, a.model, engine::EngineOptions{},
        "dedicated-" + a.model.id);
    Result<engine::InitBreakdown> init = co_await eng->ColdStart();
    if (!init.ok()) co_return init.status();
    engines_.emplace(a.model.id, std::move(eng));
  }
  co_return Status::Ok();
}

engine::InferenceEngine* DedicatedServing::engine(
    const std::string& model_id) {
  auto it = engines_.find(model_id);
  return it == engines_.end() ? nullptr : it->second.get();
}

sim::Task<core::ChatResult> DedicatedServing::Chat(
    std::string model_id, std::int64_t prompt_tokens,
    std::int64_t max_tokens) {
  core::ChatResult result;
  engine::InferenceEngine* eng = engine(model_id);
  if (eng == nullptr) {
    result.error = "model " + model_id + " not deployed";
    co_return result;
  }
  const double arrival = sim_.Now().ToSeconds();
  Result<engine::GenerationResult> gen = co_await eng->Generate(
      engine::GenerationRequest{.prompt_tokens = prompt_tokens,
                                .output_tokens = max_tokens});
  core::ModelMetrics& mm = metrics_.ForModel(model_id);
  if (!gen.ok()) {
    ++mm.failed;
    result.error = gen.status().ToString();
    co_return result;
  }
  result.ok = true;
  result.output_tokens = gen->output_tokens;
  result.ttft_s = gen->time_to_first_token.ToSeconds();
  result.total_s = sim_.Now().ToSeconds() - arrival;
  ++mm.completed;
  mm.output_tokens += gen->output_tokens;
  mm.ttft_s.Add(result.ttft_s);
  co_return result;
}

}  // namespace swapserve::baseline
