// Ollama backend model: llama.cpp runners optimized for fast loading on
// limited hardware (§2.3).
//
// Initialization is cheap — no torch.compile, no CUDA graphs — at the cost
// of markedly lower serving throughput (the Red Hat benchmark the paper
// cites). Memory policy: weights + a small context buffer only; nothing is
// preallocated. Supports loading weights from disk or a memory-backed
// filesystem (Fig. 5's two baselines).

#pragma once

#include "engine/engine.h"

namespace swapserve::engine {

class OllamaEngine final : public InferenceEngine {
 public:
  OllamaEngine(EngineEnv env, model::ModelSpec model, EngineOptions options,
               std::string backend_name);

  Bytes DirtyBytes() const override;
  Bytes CleanBytes() const override { return Bytes(0); }

  model::CheckpointModel CheckpointCharacteristics() const override;
  model::RestoreModel RestoreCharacteristics() const override;

  // Unload the model from GPU memory, keeping the runner alive (Ollama's
  // own idle eviction). Loading again pays ModelLoadTime.
  sim::Task<Status> UnloadModel();
  sim::Task<Status> LoadModel();
  bool model_loaded() const { return model_loaded_; }

 protected:
  sim::Task<Result<InitBreakdown>> InitializeEngine() override;
  // A checkpointed Ollama runner always has its model loaded (the resident
  // set is exactly what the snapshot carries).
  void AdoptEngineState() override { model_loaded_ = true; }

 private:
  // Runner spawn + GGUF setup + pipelined storage-read / H2D copy.
  sim::Task<sim::SimDuration> TransferWeightsIn();

  bool model_loaded_ = false;
};

}  // namespace swapserve::engine
