#include "hw/gpu_monitor.h"

#include <utility>

namespace swapserve::hw {

GpuMonitor::GpuMonitor(sim::Simulation& sim, std::vector<GpuDevice*> gpus,
                       sim::SimDuration sample_interval)
    : sim_(sim), gpus_(std::move(gpus)), interval_(sample_interval) {
  SWAP_CHECK_MSG(!gpus_.empty(), "monitor needs at least one GPU");
  SWAP_CHECK_MSG(interval_.ns() > 0, "sample interval must be positive");
  const std::size_t n = gpus_.size();
  memory_series_.resize(n);
  util_series_.resize(n);
  busy_snapshot_.resize(n);
  snapshot_time_.assign(n, sim_.Now());
  last_utilization_.assign(n, 0.0);
  util_gauges_.assign(n, nullptr);
  for (std::size_t i = 0; i < n; ++i) {
    busy_snapshot_[i] = gpus_[i]->TotalBusy();
  }
}

void GpuMonitor::Start() {
  SWAP_CHECK_MSG(!running_, "monitor already running");
  running_ = true;
  sim_.Go([this]() -> sim::Task<> { co_await SampleLoop(); });
}

sim::Task<> GpuMonitor::SampleLoop() {
  while (running_) {
    co_await sim_.Delay(interval_);
    const double now_s = sim_.Now().ToSeconds();
    for (std::size_t i = 0; i < gpus_.size(); ++i) {
      GpuDevice& gpu = *gpus_[i];
      const double util =
          gpu.BusyFractionSince(snapshot_time_[i], busy_snapshot_[i]);
      last_utilization_[i] = util;
      busy_snapshot_[i] = gpu.TotalBusy();
      snapshot_time_[i] = sim_.Now();
      memory_series_[i].Record(now_s, gpu.used().AsGiB());
      util_series_[i].Record(now_s, util);
      if (obs_ != nullptr) {
        // Resolved on the first sample, so a run that never samples
        // exports no series; registry instruments never move.
        if (util_gauges_[i] == nullptr) {
          util_gauges_[i] = &obs_->metrics.GetGauge(
              "swapserve_gpu_utilization", {{"gpu", std::to_string(gpu.id())}});
        }
        util_gauges_[i]->Set(util);
      }
    }
  }
}

const GpuDevice& GpuMonitor::Device(GpuId id) const {
  for (const GpuDevice* gpu : gpus_) {
    if (gpu->id() == id) return *gpu;
  }
  SWAP_CHECK_MSG(false, "unknown GPU id");
  __builtin_unreachable();
}

Bytes GpuMonitor::FreeMemory(GpuId id) const { return Device(id).free(); }

Bytes GpuMonitor::UsedMemory(GpuId id) const { return Device(id).used(); }

double GpuMonitor::CurrentUtilization(GpuId id) const {
  for (std::size_t i = 0; i < gpus_.size(); ++i) {
    if (gpus_[i]->id() == id) return last_utilization_[i];
  }
  SWAP_CHECK_MSG(false, "unknown GPU id");
  __builtin_unreachable();
}

}  // namespace swapserve::hw
