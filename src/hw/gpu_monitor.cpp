#include "hw/gpu_monitor.h"

#include <algorithm>
#include <string>
#include <utility>

namespace swapserve::hw {

GpuMonitor::GpuMonitor(sim::Simulation& sim, std::vector<GpuDevice*> gpus,
                       sim::SimDuration sample_interval)
    : sim_(sim), grid_{sim.Now(), sample_interval} {
  SWAP_CHECK_MSG(!gpus.empty(), "monitor needs at least one GPU");
  SWAP_CHECK_MSG(grid_.interval.ns() > 0, "sample interval must be positive");
  channels_.reserve(gpus.size());
  for (GpuDevice* gpu : gpus) {
    SWAP_CHECK_MSG(gpu->monitor_ == nullptr,
                   "gpu" + std::to_string(gpu->id()) +
                       " already has a monitor");
    gpu->monitor_ = this;
    gpu->monitor_slot_ = channels_.size();
    channels_.push_back({gpu, TimeSeries(grid_.interval.ns()),
                         TimeSeries(grid_.interval.ns()), sim::kNever,
                         sim_.Now(), gpu->TotalBusy()});
  }
}

GpuMonitor::~GpuMonitor() {
  for (Channel& ch : channels_) {
    ch.gpu->monitor_ = nullptr;
    ch.gpu->sample_due_ = sim::kNever;
  }
}

void GpuMonitor::BindObservability(obs::Observability* obs) {
  obs_ = obs;
  for (Channel& ch : channels_) ch.util_gauge = nullptr;
}

void GpuMonitor::Start() {
  SWAP_CHECK_MSG(!running_, "monitor already running");
  // Samples of a stopped grid that fell due before this restart still
  // count; its pending final sample does not.
  for (std::size_t i = 0; i < channels_.size(); ++i) CatchUp(i);
  running_ = true;
  grid_.anchor = sim_.Now();
  end_ = sim::kNever;
  for (Channel& ch : channels_) {
    ch.next_sample = grid_.After(sim_.Now());
    ch.gpu->sample_due_ = ch.next_sample;
  }
}

void GpuMonitor::Stop() {
  if (!running_) return;
  running_ = false;
  // The final sample: the first grid instant after Now(). Catching up is
  // idempotent, so the wake-up is harmless after a restart.
  end_ = grid_.After(sim_.Now());
  sim_.ScheduleAt(end_, [this] {
    for (std::size_t i = 0; i < channels_.size(); ++i) CatchUp(i);
  });
}

double GpuMonitor::CloseWindow(Channel& ch, sim::SimTime t) {
  const sim::SimDuration busy = ch.gpu->TotalBusyAt(t);
  const sim::SimDuration window = t - ch.window_start;
  const double util =
      window.ns() <= 0
          ? 0.0
          : static_cast<double>((busy - ch.busy_at_window_start).ns()) /
                static_cast<double>(window.ns());
  ch.window_start = t;
  ch.busy_at_window_start = busy;
  return util;
}

void GpuMonitor::CatchUp(std::size_t slot) {
  Channel& ch = channels_[slot];
  const sim::SimTime limit = std::min(sim_.Now(), end_);
  if (ch.next_sample <= limit) {
    const GpuDevice& gpu = *ch.gpu;
    const sim::SimTime first = ch.next_sample;
    const std::int64_t due =
        (grid_.After(limit) - first).ns() / grid_.interval.ns();
    // The device has not changed since before `first`, so every due sample
    // shares one memory value, and every window after the first is a whole
    // interval of one busy state: one utilization value.
    ch.memory.Append(first.ns(), gpu.used().AsGiB(),
                     static_cast<std::size_t>(due));
    double util = CloseWindow(ch, first);
    ch.utilization.Append(first.ns(), util);
    if (due > 1) {
      const sim::SimTime second = first + grid_.interval;
      util = CloseWindow(ch, second);
      ch.utilization.Append(second.ns(), util,
                            static_cast<std::size_t>(due - 1));
      const sim::SimTime last = first + grid_.interval * (due - 1);
      ch.window_start = last;
      ch.busy_at_window_start = gpu.TotalBusyAt(last);
    }
    ch.next_sample = first + grid_.interval * due;
    if (obs_ != nullptr) {
      // Resolved on the first sample, so a run that never samples exports
      // no series; registry instruments never move.
      if (ch.util_gauge == nullptr) {
        ch.util_gauge = &obs_->metrics.GetGauge(
            "swapserve_gpu_utilization", {{"gpu", std::to_string(gpu.id())}});
      }
      ch.util_gauge->Set(util);
    }
  }
  ch.gpu->sample_due_ = ch.next_sample <= end_ ? ch.next_sample : sim::kNever;
}

const TimeSeries& GpuMonitor::MemorySeries(std::size_t idx) {
  CatchUp(idx);
  return channels_[idx].memory;
}

const TimeSeries& GpuMonitor::UtilizationSeries(std::size_t idx) {
  CatchUp(idx);
  return channels_[idx].utilization;
}

const GpuDevice& GpuMonitor::Device(GpuId id) const {
  for (const Channel& ch : channels_) {
    if (ch.gpu->id() == id) return *ch.gpu;
  }
  SWAP_CHECK_MSG(false, "unknown GPU id");
  __builtin_unreachable();
}

Bytes GpuMonitor::FreeMemory(GpuId id) const { return Device(id).free(); }

Bytes GpuMonitor::UsedMemory(GpuId id) const { return Device(id).used(); }

}  // namespace swapserve::hw
