// SGLang backend model: structured-generation engine with RadixAttention.
//
// Initialization sits between Ollama and vLLM (Fig. 2: 21.7 s for
// LLaMA-3.1-8B including container start): weight load plus a lighter
// CUDA-graph capture pass and scheduler warm-up, no full torch.compile by
// default. Memory policy mirrors vLLM: a mem-fraction KV pool is claimed
// up front.

#pragma once

#include "engine/engine.h"

namespace swapserve::engine {

class SglangEngine final : public InferenceEngine {
 public:
  SglangEngine(EngineEnv env, model::ModelSpec model, EngineOptions options,
               std::string backend_name);

  Bytes DirtyBytes() const override;
  Bytes CleanBytes() const override { return Bytes(0); }

  model::CheckpointModel CheckpointCharacteristics() const override;
  model::RestoreModel RestoreCharacteristics() const override;

 protected:
  sim::Task<Result<InitBreakdown>> InitializeEngine() override;
  void AdoptEngineState() override;

 private:
  Bytes kv_pool_{0};
};

}  // namespace swapserve::engine
