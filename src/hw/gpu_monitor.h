// Periodic GPU telemetry sampler (the paper's "GPU monitor" component, §3.1
// circle 6). Samples memory occupancy and SM utilization into time series;
// the task manager reads the instantaneous values, Fig. 3's bench reads the
// series.

#pragma once

#include <memory>
#include <vector>

#include "hw/gpu_device.h"
#include "obs/observability.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "util/stats.h"

namespace swapserve::hw {

class GpuMonitor {
 public:
  // Observes (does not own) the devices. Sampling starts when Start() is
  // spawned and stops when the simulation drains or Stop() is called.
  GpuMonitor(sim::Simulation& sim, std::vector<GpuDevice*> gpus,
             sim::SimDuration sample_interval);

  // Spawn the sampling loop.
  void Start();
  void Stop() { running_ = false; }

  // Publish per-GPU utilization gauges each sample (nullable).
  void BindObservability(obs::Observability* obs) {
    obs_ = obs;
    util_gauges_.assign(gpus_.size(), nullptr);
  }

  // Instantaneous queries used for scheduling decisions.
  Bytes FreeMemory(GpuId id) const;
  Bytes UsedMemory(GpuId id) const;
  double CurrentUtilization(GpuId id) const;  // over the last interval

  // Recorded series (one per GPU, indexed by position in the ctor vector).
  const TimeSeries& MemorySeries(std::size_t idx) const {
    return memory_series_[idx];
  }
  const TimeSeries& UtilizationSeries(std::size_t idx) const {
    return util_series_[idx];
  }
  std::size_t gpu_count() const { return gpus_.size(); }

 private:
  sim::Task<> SampleLoop();
  const GpuDevice& Device(GpuId id) const;

  sim::Simulation& sim_;
  std::vector<GpuDevice*> gpus_;
  sim::SimDuration interval_;
  bool running_ = false;
  obs::Observability* obs_ = nullptr;

  std::vector<TimeSeries> memory_series_;
  std::vector<TimeSeries> util_series_;
  // Per-GPU busy-time snapshot at the previous sample (utilization window).
  std::vector<sim::SimDuration> busy_snapshot_;
  std::vector<sim::SimTime> snapshot_time_;
  std::vector<double> last_utilization_;
  // Per-GPU utilization gauge in obs_'s registry (null until first sample).
  std::vector<obs::Gauge*> util_gauges_;
};

}  // namespace swapserve::hw
