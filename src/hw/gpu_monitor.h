// GPU telemetry sampler (the paper's "GPU monitor" component, §3.1
// circle 6). Records each GPU's memory occupancy and SM utilization as
// time series on a fixed grid; Fig. 3's bench and bench_e2e read them.
//
// Sampling is change-driven: nothing wakes per sample. Sample k sits at
// Start() + k * interval and records the used GiB at that instant and the
// busy fraction over (t_{k-1}, t_k]. Before a device changes used() or its
// busy state, it hands the monitor every sample due by then, and the
// monitor writes them from the state about to change — an idle stretch of
// any length costs one run-length entry and no events. The tie rule: a
// sample reflects every change made strictly before its instant, so a
// change at exactly t_k shows from sample k+1 on. Busy time is integral
// nanoseconds, so the utilization of a past window is exact.

#pragma once

#include <cstdint>
#include <vector>

#include "hw/gpu_device.h"
#include "obs/observability.h"
#include "sim/grid_loop.h"
#include "sim/simulation.h"
#include "util/stats.h"

namespace swapserve::hw {

class GpuMonitor {
 public:
  // Observes (does not own) the devices; each device has at most one
  // monitor. Utilization windows start at construction.
  GpuMonitor(sim::Simulation& sim, std::vector<GpuDevice*> gpus,
             sim::SimDuration sample_interval);
  ~GpuMonitor();
  GpuMonitor(const GpuMonitor&) = delete;
  GpuMonitor& operator=(const GpuMonitor&) = delete;

  // Start sampling on a grid anchored at Now(). A Start() after Stop()
  // re-anchors the grid; the stopped grid's pending final sample is
  // dropped.
  void Start();
  // Stop after the first sample past Now(): one wake-up writes it, so a
  // run ends at the same instant a polling sampler would have.
  void Stop();

  // Publish per-GPU utilization gauges each sample (nullable).
  void BindObservability(obs::Observability* obs);

  // Instantaneous queries used for scheduling decisions.
  Bytes FreeMemory(GpuId id) const;
  Bytes UsedMemory(GpuId id) const;

  // Recorded series (one per GPU, indexed by position in the ctor vector),
  // complete through Now().
  const TimeSeries& MemorySeries(std::size_t idx);
  const TimeSeries& UtilizationSeries(std::size_t idx);
  std::size_t gpu_count() const { return channels_.size(); }

 private:
  friend class GpuDevice;

  struct Channel {
    GpuDevice* gpu;
    TimeSeries memory;
    TimeSeries utilization;
    sim::SimTime next_sample;  // first grid instant not yet written
    // The previous sample (or construction): the open utilization window.
    sim::SimTime window_start;
    sim::SimDuration busy_at_window_start;
    obs::Gauge* util_gauge = nullptr;  // resolved on the first sample
  };

  // Write every sample of channel `slot` due by min(Now(), end_) and tell
  // its device when the next one falls due.
  void CatchUp(std::size_t slot);
  // Busy fraction over (ch.window_start, t]; the window then starts at t.
  double CloseWindow(Channel& ch, sim::SimTime t);
  const GpuDevice& Device(GpuId id) const;

  sim::Simulation& sim_;
  std::vector<Channel> channels_;
  bool running_ = false;
  sim::Grid grid_;  // anchored at Start()
  // Last grid instant sampled: kNever while running, the final sample
  // after Stop().
  sim::SimTime end_ = sim::kNever;
  obs::Observability* obs_ = nullptr;
};

}  // namespace swapserve::hw
