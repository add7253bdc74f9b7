// engine-kind-layer compliant twin: looks the engine up by its config name
// and reads the row's data. Comments may mention EngineKind freely.
#include "model/calibration.h"
#include "util/status.h"

namespace swapserve::core {

Result<double> SleepCostMs(const std::string& engine) {
  const model::EngineProfile* profile = model::FindEngineProfile(engine);
  if (profile == nullptr) return InvalidArgument("unknown engine " + engine);
  return profile->sleep_mode ? profile->sleep_mode->sleep.ToMillis() : 0.0;
}

}  // namespace swapserve::core
