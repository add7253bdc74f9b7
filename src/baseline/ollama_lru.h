// Baseline 2: Ollama's own on-demand model loading (§2.3).
//
// One long-lived Ollama server hosts llama.cpp runners, loading requested
// models from storage (disk or a memory-backed filesystem — Fig. 5's two
// configurations) and unloading least-recently-used runners when GPU
// memory runs short. No checkpointing: an evicted model pays the full
// load path again.

#pragma once

#include <map>
#include <memory>
#include <string>

#include "engine/engine.h"
#include "hw/gpu_device.h"
#include "hw/link.h"
#include "model/model_spec.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "util/status.h"

namespace swapserve::baseline {

class OllamaLruServing {
 public:
  OllamaLruServing(sim::Simulation& sim, hw::GpuDevice& gpu,
                   hw::StorageDevice& model_storage);

  // Spawn a runner for each model (server start + first load + unload, so
  // the measurement below is a pure on-demand load).
  sim::Task<Status> Initialize(std::vector<model::ModelSpec> models);

  // Pure model-load latency measurement: ensures the model is unloaded,
  // then loads it and reports the elapsed time (Fig. 5's "Ollama" bars).
  sim::Task<Result<sim::SimDuration>> MeasureLoad(std::string model_id);

  // Load the model if absent, unloading least-recently-used runners until
  // it fits; marks the runner used either way.
  sim::Task<Status> EnsureLoaded(std::string model_id);
  sim::Task<Status> Unload(std::string model_id);
  bool IsLoaded(const std::string& model_id) const;

  std::uint64_t evictions() const { return evictions_; }

 private:
  struct Runner {
    std::unique_ptr<engine::InferenceEngine> engine;
    sim::SimTime last_used;
    std::unique_ptr<sim::SimMutex> loading;
  };

  Runner* LruLoadedExcept(const std::string& model_id);

  sim::Simulation& sim_;
  hw::GpuDevice& gpu_;
  hw::StorageDevice& storage_;
  std::map<std::string, Runner> runners_;
  std::uint64_t evictions_ = 0;
};

}  // namespace swapserve::baseline
