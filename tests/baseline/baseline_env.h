// Shared fixture for baseline tests.

#pragma once

#include <memory>

#include "hw/gpu_device.h"
#include "hw/gpu_spec.h"
#include "hw/link.h"
#include "model/catalog.h"
#include "sim/simulation.h"

namespace swapserve::baseline::testing {

struct BaselineBed {
  explicit BaselineBed(int gpu_count = 1)
      : catalog(model::ModelCatalog::Default()),
        storage(sim, "nvme", GBps(6), sim::Seconds(0.1)) {
    for (int i = 0; i < gpu_count; ++i) {
      gpus.push_back(std::make_unique<hw::GpuDevice>(
          sim, i, hw::GpuSpec::H100Hbm3_80GB()));
    }
  }

  template <typename F>
  void Run(F body) {
    sim::Spawn(std::move(body));
    sim.Run();
  }

  sim::Simulation sim;
  model::ModelCatalog catalog;
  std::vector<std::unique_ptr<hw::GpuDevice>> gpus;
  hw::StorageDevice storage;
};

}  // namespace swapserve::baseline::testing
