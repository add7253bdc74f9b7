#include "bench/fig3_month.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "baseline/dedicated.h"
#include "bench/common.h"
#include "workload/trace.h"

namespace swapserve::bench {
namespace {

using workload::MmppRate;
using workload::ModelWorkload;
using workload::RequestProfile;
using workload::TraceEvent;

constexpr const char* kModels[] = {
    "deepseek-r1-14b-q8", "deepseek-r1-7b-q8",       "deepseek-r1-8b-q8",
    "deepseek-coder-6.7b-fp16", "llama-3.2-3b-fp16", "llama-3.2-1b-fp16",
};

// Seeds each model's MMPP switch times and the trace itself.
constexpr std::uint64_t kSeed = 0xf163;

std::vector<TraceEvent> MonthTrace() {
  // Sporadic academic usage: hours of silence broken by short bursts.
  const double horizon = kFig3Days * 86400.0;
  std::vector<std::unique_ptr<MmppRate>> rates;
  RequestProfile profile = RequestProfile::Conversational();
  std::vector<ModelWorkload> mix;
  std::uint64_t switch_seed = kSeed;
  for (const char* m : kModels) {
    rates.push_back(std::make_unique<MmppRate>(
        /*quiet_rps=*/0.00012, /*burst_rps=*/0.02, /*mean_quiet_s=*/5 * 3600,
        /*mean_burst_s=*/1200, switch_seed++, horizon));
    mix.push_back({m, rates.back().get(), &profile});
  }
  return workload::GenerateTrace(mix, horizon, kSeed);
}

Fig3Run RunSwapServe(const std::vector<TraceEvent>& trace) {
  Bed bed(Machine::kH100);
  core::Config cfg;
  cfg.global.monitor_interval_s = 300;
  for (const char* m : kModels) {
    core::ModelEntry entry;
    entry.model_id = m;
    entry.engine = "ollama";
    cfg.models.push_back(entry);
  }
  core::SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());

  bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await serve.Initialize()).ok());
    const double start = bed.sim.Now().ToSeconds();
    for (const TraceEvent& ev : trace) {
      co_await bed.sim.WaitUntil(sim::SimTime(
          static_cast<std::int64_t>((start + ev.time_s) * 1e9)));
      sim::Spawn([&serve, ev]() -> sim::Task<> {
        (void)co_await serve.ChatAndWait(ev.model_id, ev.prompt_tokens,
                                         ev.output_tokens);
      });
    }
    co_await bed.sim.Delay(sim::Hours(1));  // drain tail
    serve.Shutdown();
  });

  Fig3Run stats;
  const TimeSeries& mem = serve.monitor().MemorySeries(0);
  const TimeSeries& util = serve.monitor().UtilizationSeries(0);
  const double t1 = kFig3Days * 86400.0;
  stats.mean_mem_gib = mem.TimeWeightedMean(0, t1);
  stats.peak_mem_gib = mem.MaxValue();
  stats.mean_util_pct = util.TimeWeightedMean(0, t1) * 100.0;
  stats.p99_ttft_s = serve.metrics().AllTtft().P99();
  stats.completed = serve.metrics().TotalCompleted();
  stats.swap_ins = serve.metrics().swap_ins;
  stats.gpu_hours = kFig3Days * 24.0;  // one GPU reserved
  return stats;
}

Fig3Run RunDedicated(const std::vector<TraceEvent>& trace) {
  Bed bed(Machine::kH100, /*gpu_count=*/6);
  std::vector<baseline::DedicatedServing::Assignment> assignments;
  for (std::size_t i = 0; i < std::size(kModels); ++i) {
    assignments.push_back({bed.catalog.Find(kModels[i]).value(),
                           engine::EngineKind::kOllama,
                           bed.gpus[i].get()});
  }
  baseline::DedicatedServing dedicated(bed.sim, std::move(assignments),
                                       bed.storage, bed.runtime);
  hw::GpuMonitor monitor(bed.sim,
                         {bed.gpus[0].get(), bed.gpus[1].get(),
                          bed.gpus[2].get(), bed.gpus[3].get(),
                          bed.gpus[4].get(), bed.gpus[5].get()},
                         sim::Seconds(300));

  bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await dedicated.Initialize()).ok());
    monitor.Start();
    const double start = bed.sim.Now().ToSeconds();
    for (const TraceEvent& ev : trace) {
      co_await bed.sim.WaitUntil(sim::SimTime(
          static_cast<std::int64_t>((start + ev.time_s) * 1e9)));
      sim::Spawn([&dedicated, ev]() -> sim::Task<> {
        (void)co_await dedicated.Chat(ev.model_id, ev.prompt_tokens,
                                      ev.output_tokens);
      });
    }
    co_await bed.sim.Delay(sim::Hours(1));
    monitor.Stop();
  });

  Fig3Run stats;
  const double t1 = kFig3Days * 86400.0;
  double mem_sum = 0;
  double util_sum = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    mem_sum += monitor.MemorySeries(i).TimeWeightedMean(0, t1);
    stats.peak_mem_gib =
        std::max(stats.peak_mem_gib, monitor.MemorySeries(i).MaxValue());
    util_sum += monitor.UtilizationSeries(i).TimeWeightedMean(0, t1);
  }
  stats.mean_mem_gib = mem_sum;           // across the fleet
  stats.mean_util_pct = util_sum / 6 * 100.0;  // per-GPU average
  stats.p99_ttft_s = dedicated.metrics().AllTtft().P99();
  stats.completed = dedicated.metrics().TotalCompleted();
  stats.swap_ins = dedicated.metrics().swap_ins;
  stats.gpu_hours = 6 * kFig3Days * 24.0;
  return stats;
}

}  // namespace

Fig3Month RunFig3Month() {
  const std::vector<TraceEvent> trace = MonthTrace();
  Fig3Month month;
  month.requests = trace.size();
  month.dedicated = RunDedicated(trace);
  month.swapserve = RunSwapServe(trace);
  return month;
}

}  // namespace swapserve::bench
