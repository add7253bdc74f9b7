// Shared benchmark scaffolding: simulated servers matching the paper's two
// evaluation machines, the JSON document the perf gates read, and the
// header every bench prints.
//
// The paper's tables, figures and ablations run in scenarios.cpp; their
// bench mains print what it returns, with the paper's measured values
// alongside where applicable (EXPERIMENTS.md records the comparison).

#pragma once

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "json/json.h"

#include "core/swap_serve.h"
#include "hw/gpu_device.h"
#include "hw/gpu_spec.h"
#include "hw/link.h"
#include "model/catalog.h"
#include "sim/simulation.h"
#include "util/log.h"
#include "util/table.h"

namespace swapserve::bench {

enum class Machine { kA100, kH100 };

// One simulated server (GPU(s) + host storage).
struct Bed {
  explicit Bed(Machine machine, int gpu_count = 1, bool tmpfs = false,
               double disk_bw_scale = 1.0)
      : catalog(model::ModelCatalog::Default()),
        host(machine == Machine::kA100 ? hw::HostSpec::A100Host()
                                       : hw::HostSpec::H100Host()),
        storage(sim, tmpfs ? "tmpfs" : "nvme",
                Scale(tmpfs ? host.tmpfs_read : host.disk_read,
                      disk_bw_scale),
                tmpfs ? sim::Seconds(0.02) : sim::Seconds(0.1)) {
    const hw::GpuSpec spec = machine == Machine::kA100
                                 ? hw::GpuSpec::A100Sxm4_80GB()
                                 : hw::GpuSpec::H100Hbm3_80GB();
    for (int i = 0; i < gpu_count; ++i) {
      gpus.push_back(std::make_unique<hw::GpuDevice>(sim, i, spec));
    }
  }

  static BytesPerSecond Scale(BytesPerSecond bw, double k) {
    return BytesPerSecond(bw.bytes_per_sec() * k);
  }

  core::Hardware hardware() {
    core::Hardware hw;
    for (auto& gpu : gpus) hw.gpus.push_back(gpu.get());
    hw.storage = &storage;
    return hw;
  }

  engine::EngineEnv env(int gpu = 0) {
    return engine::EngineEnv{
        .sim = &sim,
        .gpu = gpus[static_cast<std::size_t>(gpu)].get(),
        .storage = &storage,
        .tp_group = {},
    };
  }

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

// Machine-readable bench output: one {benchmark -> metric} object, written
// so perf gates (scripts/check_perf.sh) can diff runs instead of scraping
// stdout. `metric_name` documents the unit (e.g. "events_per_sec").
inline void WriteBenchJson(
    const std::string& path, const std::string& metric_name,
    const std::vector<std::pair<std::string, double>>& rows,
    const std::string& note) {
  json::Value doc = json::Value::MakeObject();
  doc["note"] = note;
  json::Value metrics = json::Value::MakeObject();
  for (const auto& [name, value] : rows) metrics[name] = value;
  doc[metric_name] = std::move(metrics);
  std::ofstream os(path);
  os << doc.Pretty() << "\n";
}

inline void PrintHeader(const std::string& title, const std::string& note) {
  std::printf("\n=== %s ===\n%s\n\n", title.c_str(), note.c_str());
}

}  // namespace swapserve::bench
