// Shared fixture for engine tests: one simulated H100 machine.

#pragma once

#include <memory>

#include "engine/engine.h"
#include "hw/gpu_device.h"
#include "hw/gpu_spec.h"
#include "hw/link.h"
#include "model/catalog.h"
#include "sim/simulation.h"

namespace swapserve::engine::testing {

struct EngineBed {
  explicit EngineBed(hw::GpuSpec spec = hw::GpuSpec::H100Hbm3_80GB())
      : catalog(model::ModelCatalog::Default()),
        gpu(sim, 0, std::move(spec)),
        storage(sim, "nvme", GBps(6), sim::Seconds(0.1)) {}

  EngineEnv env() {
    return EngineEnv{.sim = &sim,
                     .gpu = &gpu,
                     .storage = &storage,
                     .tp_group = {}};
  }

  template <typename F>
  void Run(F body) {
    sim::Spawn(std::move(body));
    sim.Run();
  }

  sim::Simulation sim;
  model::ModelCatalog catalog;
  hw::GpuDevice gpu;
  hw::StorageDevice storage;
};

}  // namespace swapserve::engine::testing
