// TensorRT-LLM backend model: lowest serving latency, longest build.
//
// TRT-LLM compiles a model-and-GPU-specific engine at initialization; that
// build dominates its Fig. 2 cold start (124 s for LLaMA-3.1-8B). Memory
// policy preallocates a KV pool like vLLM; there is no sleep-mode API, so
// checkpoints carry the full resident set.

#pragma once

#include "engine/engine.h"

namespace swapserve::engine {

class TrtllmEngine final : public InferenceEngine {
 public:
  TrtllmEngine(EngineEnv env, model::ModelSpec model, EngineOptions options,
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
