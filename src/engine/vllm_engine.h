// vLLM backend model: high-throughput serving with PagedAttention.
//
// Initialization (Table 1): weight load, torch.compile, CUDA-graph capture,
// plus tokenizer/KV-allocation/warm-up. Memory policy: claims
// gpu_memory_utilization * HBM up front (weights + paged KV arena) — this
// is why Fig. 6a's backends sit at 72-73 GB regardless of model size.
// Sleep mode (the paper's §4.2 optimization) discards the KV arena before a
// checkpoint so only the weights are dirty.

#pragma once

#include "engine/engine.h"

namespace swapserve::engine {

class VllmEngine final : public InferenceEngine {
 public:
  VllmEngine(EngineEnv env, model::ModelSpec model, EngineOptions options,
             std::string backend_name);

  Bytes DirtyBytes() const override;
  Bytes CleanBytes() const override;

  sim::Task<Status> PrepareForCheckpoint() override;
  sim::Task<Status> AfterRestore() override;

  model::CheckpointModel CheckpointCharacteristics() const override;
  model::RestoreModel RestoreCharacteristics() const override;

  bool sleeping() const { return sleeping_; }
  Bytes kv_arena_bytes() const { return kv_arena_; }

 protected:
  sim::Task<Result<InitBreakdown>> InitializeEngine() override;
  void AdoptEngineState() override;

 private:
  Bytes kv_arena_{0};   // preallocated paged-KV pool
  bool sleeping_ = false;
};

}  // namespace swapserve::engine
