// Shared test fixture: a simulated H100 server with storage and a catalog,
// plus the config a SwapServe instance is built from.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/swap_serve.h"
#include "hw/gpu_device.h"
#include "hw/gpu_spec.h"
#include "hw/link.h"
#include "model/catalog.h"
#include "sim/simulation.h"

namespace swapserve::core::testing {

struct TestBed {
  explicit TestBed(int gpu_count = 1)
      : catalog(model::ModelCatalog::Default()),
        host(hw::HostSpec::H100Host()),
        storage(sim, "nvme", host.disk_read, sim::Seconds(0.1)) {
    for (int i = 0; i < gpu_count; ++i) {
      gpus.push_back(std::make_unique<hw::GpuDevice>(
          sim, i, hw::GpuSpec::H100Hbm3_80GB()));
    }
  }

  Hardware hardware() {
    Hardware hw;
    for (auto& gpu : gpus) hw.gpus.push_back(gpu.get());
    hw.storage = &storage;
    return hw;
  }

  // Builds a config with the given (model, engine) entries on gpu 0.
  Config MakeConfig(
      const std::vector<std::pair<std::string, std::string>>& entries) {
    Config cfg;
    for (const auto& [model_id, engine] : entries) {
      ModelEntry m;
      m.model_id = model_id;
      m.engine = engine;
      cfg.models.push_back(std::move(m));
    }
    return cfg;
  }

  // Convenience: run a root task to completion on the simulation.
  template <typename F>
  void RunTask(F body) {
    sim::Spawn(std::move(body));
    sim.Run();
  }

  sim::Simulation sim;
  model::ModelCatalog catalog;
  hw::HostSpec host;
  std::vector<std::unique_ptr<hw::GpuDevice>> gpus;
  hw::StorageDevice storage;
};

}  // namespace swapserve::core::testing
