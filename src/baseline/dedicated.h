// Baseline 1: dedicated-GPU serving (§1 / Fig. 3).
//
// One always-resident engine per model, each pinned to its own GPU — the
// conventional deployment whose idle cost and underutilization motivate the
// paper. No swapping, no cold starts after initialization.

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/types.h"
#include "engine/engine.h"
#include "hw/gpu_device.h"
#include "hw/link.h"
#include "model/model_spec.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "util/status.h"

namespace swapserve::baseline {

class DedicatedServing {
 public:
  struct Assignment {
    model::ModelSpec model;
    model::EngineKind kind = model::EngineKind::kVllm;
    hw::GpuDevice* gpu = nullptr;
  };

  DedicatedServing(sim::Simulation& sim, std::vector<Assignment> assignments,
                   hw::StorageDevice& storage);

  // Cold-start every engine; they stay resident forever.
  sim::Task<Status> Initialize();

  sim::Task<core::ChatResult> Chat(std::string model_id,
                                   std::int64_t prompt_tokens,
                                   std::int64_t max_tokens);

  core::Metrics& metrics() { return metrics_; }
  std::size_t gpu_count() const { return assignments_.size(); }
  engine::InferenceEngine* engine(const std::string& model_id);

 private:
  sim::Simulation& sim_;
  std::vector<Assignment> assignments_;
  hw::StorageDevice& storage_;
  core::Metrics metrics_;
  std::map<std::string, std::unique_ptr<engine::InferenceEngine>> engines_;
};

}  // namespace swapserve::baseline
