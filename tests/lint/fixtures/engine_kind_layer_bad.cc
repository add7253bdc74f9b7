// engine-kind-layer trigger: linted under a core/ path, this file switches
// on the engine kind instead of reading the profile row.
#include "model/calibration.h"

namespace swapserve::core {

double SleepCostMs(const model::EngineProfile& profile) {
  if (profile.kind == model::EngineKind::kVllm) return 180.0;
  return 0.0;
}

bool IsOllama(model::EngineKind kind) {
  return kind == model::EngineKind::kOllama;
}

}  // namespace swapserve::core
