#include "hw/gpu_monitor.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hw/gpu_spec.h"
#include "sim/random.h"
#include "sim/task.h"

namespace swapserve::hw {
namespace {

TEST(GpuMonitorTest, RecordsMemorySeries) {
  sim::Simulation sim;
  GpuDevice gpu(sim, 0, GpuSpec::H100Hbm3_80GB());
  GpuMonitor monitor(sim, {&gpu}, sim::Seconds(1));
  monitor.Start();
  sim.Schedule(sim::Seconds(2.5), [&] {
    SWAP_CHECK(gpu.Allocate(Name("m"), GiB(40), "weights").ok());
  });
  sim.Schedule(sim::Seconds(5.5), [&] { monitor.Stop(); });
  sim.Run();

  // Samples at t=1,2 see 0 GiB; t=3..6 see 40 GiB (t=6 is the first
  // sample after Stop()).
  const std::vector<TimeSeries::Point> mem = monitor.MemorySeries(0).Points();
  ASSERT_EQ(mem.size(), 6u);
  EXPECT_DOUBLE_EQ(mem[0].value, 0.0);
  EXPECT_DOUBLE_EQ(mem[1].value, 0.0);
  EXPECT_DOUBLE_EQ(mem[2].value, 40.0);
  EXPECT_DOUBLE_EQ(mem[5].time_s, 6.0);
  EXPECT_DOUBLE_EQ(monitor.MemorySeries(0).MaxValue(), 40.0);
  EXPECT_EQ(sim.Now(), sim::SimTime(sim::Seconds(6).ns()));
}

TEST(GpuMonitorTest, UtilizationWindows) {
  sim::Simulation sim;
  GpuDevice gpu(sim, 0, GpuSpec::H100Hbm3_80GB());
  GpuMonitor monitor(sim, {&gpu}, sim::Seconds(10));
  monitor.Start();
  // Busy [12, 17]: the second window (10, 20] is 50% busy.
  sim.Schedule(sim::Seconds(12), [&] { gpu.BeginCompute(); });
  sim.Schedule(sim::Seconds(17), [&] { gpu.EndCompute(); });
  sim.Schedule(sim::Seconds(25), [&] { monitor.Stop(); });
  sim.Run();

  const std::vector<TimeSeries::Point> util =
      monitor.UtilizationSeries(0).Points();
  ASSERT_EQ(util.size(), 3u);
  EXPECT_DOUBLE_EQ(util[0].value, 0.0);  // (0, 10]
  EXPECT_DOUBLE_EQ(util[1].value, 0.5);  // (10, 20]
  EXPECT_DOUBLE_EQ(util[2].value, 0.0);  // (20, 30]
}

TEST(GpuMonitorTest, InstantaneousQueries) {
  sim::Simulation sim;
  GpuDevice gpu(sim, 3, GpuSpec::A100Sxm4_80GB());
  GpuMonitor monitor(sim, {&gpu}, sim::Seconds(1));
  SWAP_CHECK(gpu.Allocate(Name("m"), GiB(16), "weights").ok());
  EXPECT_EQ(monitor.UsedMemory(3), GiB(16));
  EXPECT_EQ(monitor.FreeMemory(3), GiB(64));
}

TEST(GpuMonitorTest, MultiGpuSeriesIndependent) {
  sim::Simulation sim;
  GpuDevice gpu0(sim, 0, GpuSpec::H100Hbm3_80GB());
  GpuDevice gpu1(sim, 1, GpuSpec::H100Hbm3_80GB());
  GpuMonitor monitor(sim, {&gpu0, &gpu1}, sim::Seconds(1));
  monitor.Start();
  sim.Schedule(sim::Seconds(0.5), [&] {
    SWAP_CHECK(gpu1.Allocate(Name("m"), GiB(8), "weights").ok());
  });
  sim.Schedule(sim::Seconds(3.5), [&] { monitor.Stop(); });
  sim.Run();
  EXPECT_DOUBLE_EQ(monitor.MemorySeries(0).MaxValue(), 0.0);
  EXPECT_DOUBLE_EQ(monitor.MemorySeries(1).MaxValue(), 8.0);
  EXPECT_EQ(monitor.MemorySeries(0).size(), 4u);
  EXPECT_EQ(monitor.MemorySeries(1).size(), 4u);
}

// The tie rule: a sample reflects every change made strictly before its
// instant. This allocation is queued before the monitor exists, so it
// runs ahead of anything at t=2, yet sample 2 still shows the old value.
TEST(GpuMonitorTest, ChangeAtASampleInstantShowsFromTheNextSample) {
  sim::Simulation sim;
  GpuDevice gpu(sim, 0, GpuSpec::H100Hbm3_80GB());
  sim.Schedule(sim::Seconds(2), [&] {
    SWAP_CHECK(gpu.Allocate(Name("m"), GiB(40), "weights").ok());
  });
  GpuMonitor monitor(sim, {&gpu}, sim::Seconds(1));
  monitor.Start();
  sim.Schedule(sim::Seconds(3.5), [&] { monitor.Stop(); });
  sim.Run();
  const std::vector<TimeSeries::Point> mem = monitor.MemorySeries(0).Points();
  ASSERT_EQ(mem.size(), 4u);
  EXPECT_DOUBLE_EQ(mem[1].time_s, 2.0);
  EXPECT_DOUBLE_EQ(mem[1].value, 0.0);
  EXPECT_DOUBLE_EQ(mem[2].value, 40.0);
}

// Nothing wakes per sample: an hour of one-second samples over a device
// that never changes costs the final sample's wake-up and one run.
TEST(GpuMonitorTest, IdleMonitorSchedulesOneEvent) {
  sim::Simulation sim;
  GpuDevice gpu(sim, 0, GpuSpec::H100Hbm3_80GB());
  GpuMonitor monitor(sim, {&gpu}, sim::Seconds(1));
  monitor.Start();
  sim.Schedule(sim::Hours(1) - sim::Millis(500), [&] { monitor.Stop(); });
  sim.Run();
  EXPECT_EQ(sim.processed_events(), 2u);  // the Stop() and the final sample
  EXPECT_EQ(monitor.MemorySeries(0).size(), 3600u);
  EXPECT_EQ(monitor.MemorySeries(0).runs(), 1u);
  EXPECT_EQ(monitor.UtilizationSeries(0).runs(), 1u);
}

// Start, Stop and Start again within one interval: one grid, anchored at
// the second Start(), and no second sampler stacked beside it.
TEST(GpuMonitorTest, RestartWithinAnIntervalSamplesOnce) {
  sim::Simulation sim;
  GpuDevice gpu(sim, 0, GpuSpec::H100Hbm3_80GB());
  GpuMonitor monitor(sim, {&gpu}, sim::Seconds(1));
  monitor.Start();
  sim.Schedule(sim::Seconds(0.2), [&] { monitor.Stop(); });
  sim.Schedule(sim::Seconds(0.5), [&] { monitor.Start(); });
  // Ten intervals after the restart: samples at 1.5, 2.5, ..., 10.5.
  sim.Schedule(sim::Seconds(10.7), [&] { monitor.Stop(); });
  sim.Run();
  const std::vector<TimeSeries::Point> mem = monitor.MemorySeries(0).Points();
  ASSERT_EQ(mem.size(), 11u);  // ten, plus the first after Stop()
  EXPECT_DOUBLE_EQ(mem.front().time_s, 1.5);
  EXPECT_DOUBLE_EQ(mem.back().time_s, 11.5);
}

#if GTEST_HAS_DEATH_TEST
TEST(GpuMonitorTest, OneMonitorPerDevice) {
  sim::Simulation sim;
  GpuDevice gpu(sim, 0, GpuSpec::H100Hbm3_80GB());
  GpuMonitor monitor(sim, {&gpu}, sim::Seconds(1));
  EXPECT_DEATH({ GpuMonitor second(sim, {&gpu}, sim::Seconds(1)); },
               "already has a monitor");
}
#endif  // GTEST_HAS_DEATH_TEST

// --- change-driven vs polling ------------------------------------------

// The sampler the change-driven monitor replaced: one wake-up per
// interval, recording every GPU from the live device state.
class PollingSampler {
 public:
  PollingSampler(sim::Simulation& sim, std::vector<GpuDevice*> gpus,
                 sim::SimDuration interval)
      : sim_(sim),
        gpus_(std::move(gpus)),
        interval_(interval),
        memory_(gpus_.size()),
        util_(gpus_.size()),
        window_start_(gpus_.size(), sim.Now()) {
    for (GpuDevice* gpu : gpus_) busy_at_window_start_.push_back(gpu->TotalBusy());
  }

  void Start() {
    running_ = true;
    sim_.Go([this]() -> sim::Task<> {
      while (running_) {
        co_await sim_.Delay(interval_);
        for (std::size_t i = 0; i < gpus_.size(); ++i) {
          const sim::SimDuration busy = gpus_[i]->TotalBusy();
          const sim::SimDuration window = sim_.Now() - window_start_[i];
          util_[i].push_back(
              {sim_.Now().ToSeconds(),
               static_cast<double>((busy - busy_at_window_start_[i]).ns()) /
                   static_cast<double>(window.ns())});
          memory_[i].push_back(
              {sim_.Now().ToSeconds(), gpus_[i]->used().AsGiB()});
          window_start_[i] = sim_.Now();
          busy_at_window_start_[i] = busy;
        }
      }
    });
  }
  void Stop() { running_ = false; }

  const std::vector<TimeSeries::Point>& memory(std::size_t i) const {
    return memory_[i];
  }
  const std::vector<TimeSeries::Point>& util(std::size_t i) const {
    return util_[i];
  }

 private:
  sim::Simulation& sim_;
  std::vector<GpuDevice*> gpus_;
  sim::SimDuration interval_;
  bool running_ = false;
  std::vector<std::vector<TimeSeries::Point>> memory_;
  std::vector<std::vector<TimeSeries::Point>> util_;
  std::vector<sim::SimTime> window_start_;
  std::vector<sim::SimDuration> busy_at_window_start_;
};

void ExpectSameSeries(const std::vector<TimeSeries::Point>& lazy,
                      const std::vector<TimeSeries::Point>& polled,
                      const std::string& what) {
  ASSERT_EQ(lazy.size(), polled.size()) << what;
  for (std::size_t k = 0; k < lazy.size(); ++k) {
    // Exact equality: bit-identical samples, not merely close ones.
    ASSERT_EQ(lazy[k].time_s, polled[k].time_s) << what << " sample " << k;
    ASSERT_EQ(lazy[k].value, polled[k].value) << what << " sample " << k;
  }
}

// A random allocate/free/compute schedule on 1-3 GPUs, with every change
// off the sample grid: the change-driven series equal the polled ones
// sample for sample, through the first sample after Stop().
TEST(GpuMonitorPropertyTest, MatchesAPollingSamplerBitForBit) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    sim::Rng rng(seed);
    sim::Simulation sim;
    const int n = static_cast<int>(rng.UniformInt(1, 3));
    std::vector<std::unique_ptr<GpuDevice>> gpus;
    std::vector<GpuDevice*> ptrs;
    for (int i = 0; i < n; ++i) {
      gpus.push_back(
          std::make_unique<GpuDevice>(sim, i, GpuSpec::H100Hbm3_80GB()));
      ptrs.push_back(gpus.back().get());
    }
    const sim::SimDuration interval =
        sim::Millis(static_cast<double>(rng.UniformInt(200, 1500)));
    GpuMonitor monitor(sim, ptrs, interval);
    PollingSampler polled(sim, ptrs, interval);

    // Both start together, off the origin, so the first utilization
    // window is longer than an interval.
    const sim::SimTime start(rng.UniformInt(1, 3'000'000'000));
    const sim::SimTime stop(start.ns() + rng.UniformInt(5, 60) *
                                             interval.ns() +
                            rng.UniformInt(1, interval.ns() - 1));
    sim.ScheduleAt(start, [&] {
      monitor.Start();
      polled.Start();
    });
    sim.ScheduleAt(stop, [&] {
      monitor.Stop();
      polled.Stop();
    });

    const auto off_grid = [&](std::int64_t ns) {
      if (ns > start.ns() && (ns - start.ns()) % interval.ns() == 0) ++ns;
      return sim::SimTime(ns);
    };
    std::vector<int> open_streams(static_cast<std::size_t>(n), 0);
    std::vector<std::vector<AllocationId>> held(static_cast<std::size_t>(n));
    const std::int64_t horizon = stop.ns() + 2 * interval.ns();
    const int changes = static_cast<int>(rng.UniformInt(20, 200));
    for (int c = 0; c < changes; ++c) {
      const std::size_t g =
          static_cast<std::size_t>(rng.UniformInt(0, n - 1));
      const std::int64_t kind = rng.UniformInt(0, 4);
      const std::int64_t gib = rng.UniformInt(1, 24);
      sim.ScheduleAt(off_grid(rng.UniformInt(0, horizon)), [&, g, kind, gib] {
        GpuDevice& gpu = *gpus[g];
        switch (kind) {
          case 0: {
            Result<AllocationId> id =
                gpu.Allocate(Name("m" + std::to_string(gib % 3)), GiB(gib),
                             "kv");
            if (id.ok()) held[g].push_back(*id);
            break;
          }
          case 1:
            if (!held[g].empty()) {
              SWAP_CHECK(gpu.Free(held[g].back()).ok());
              held[g].pop_back();
            }
            break;
          case 2:
            (void)gpu.FreeAllOwnedBy(Name("m" + std::to_string(gib % 3)));
            held[g].clear();
            for (const GpuDevice::Allocation& a : gpu.Allocations()) {
              held[g].push_back(a.id);
            }
            break;
          case 3:
            gpu.BeginCompute();
            ++open_streams[g];
            break;
          default:
            if (open_streams[g] > 0) {
              gpu.EndCompute();
              --open_streams[g];
            }
            break;
        }
      });
    }
    sim.Run();

    for (int i = 0; i < n; ++i) {
      const std::string what =
          "seed " + std::to_string(seed) + " gpu" + std::to_string(i);
      ExpectSameSeries(monitor.MemorySeries(i).Points(), polled.memory(i),
                       what + " memory");
      ExpectSameSeries(monitor.UtilizationSeries(i).Points(), polled.util(i),
                       what + " utilization");
    }
  }
}

}  // namespace
}  // namespace swapserve::hw
