// Week-long diurnal serving: a coding assistant and a conversational bot
// share a GPU through the daily cycle of Fig. 1.
//
// Shows the elasticity argument end-to-end: overnight, both models are idle
// and a dedicated deployment would waste two GPUs; with SwapServeLLM the
// first morning request pays a few seconds of swap-in and the day proceeds
// resident.
//
//   ./build/examples/diurnal_autoscale

#include <cstdio>

#include "core/swap_serve.h"
#include "hw/gpu_device.h"
#include "hw/gpu_spec.h"
#include "hw/link.h"
#include "model/catalog.h"
#include "sim/simulation.h"
#include "util/table.h"
#include "workload/trace.h"

using namespace swapserve;

int main() {
  sim::Simulation sim;
  hw::GpuDevice gpu(sim, 0, hw::GpuSpec::H100Hbm3_80GB());
  hw::StorageDevice nvme(sim, "nvme", hw::HostSpec::H100Host().disk_read,
                         sim::Seconds(0.1));
  model::ModelCatalog catalog = model::ModelCatalog::Default();

  core::Config config;
  for (const char* m : {"deepseek-coder-6.7b-fp16", "llama-3.1-8b-fp16"}) {
    core::ModelEntry entry;
    entry.model_id = m;
    entry.engine = "ollama";
    config.models.push_back(entry);
  }
  config.global.monitor_interval_s = 600;
  SWAP_CHECK(config.Validate(catalog, 1).ok());
  core::Hardware hardware{.gpus = {&gpu}, .storage = &nvme};
  core::SwapServe serve(sim, config, catalog, hardware);

  // Fig. 1-shaped week: coding follows business hours, chat peaks evenings.
  const double horizon = 7 * 86400.0;
  workload::DiurnalRate coding_rate = workload::DiurnalRate::CodingPreset(0.02);
  workload::DiurnalRate chat_rate =
      workload::DiurnalRate::ConversationalPreset(0.015);
  workload::RequestProfile coding_profile = workload::RequestProfile::Coding();
  workload::RequestProfile chat_profile =
      workload::RequestProfile::Conversational();
  std::vector<workload::ModelWorkload> mix = {
      {"deepseek-coder-6.7b-fp16", &coding_rate, &coding_profile},
      {"llama-3.1-8b-fp16", &chat_rate, &chat_profile},
  };
  std::vector<workload::TraceEvent> trace =
      workload::GenerateTrace(mix, horizon, 0xd1e1);
  std::printf("replaying %zu requests over one week...\n\n", trace.size());

  // Per-day TTFT tracking.
  std::vector<Samples> day_ttft(7);
  sim::Spawn([&]() -> sim::Task<> {
    SWAP_CHECK((co_await serve.Initialize()).ok());
    const double start = sim.Now().ToSeconds();
    for (const workload::TraceEvent& ev : trace) {
      co_await sim.WaitUntil(sim::SimTime(
          static_cast<std::int64_t>((start + ev.time_s) * 1e9)));
      const int day = static_cast<int>(ev.time_s / 86400.0);
      sim::Spawn([&serve, &day_ttft, ev, day]() -> sim::Task<> {
        core::ChatResult r = co_await serve.ChatAndWait(
            ev.model_id, ev.prompt_tokens, ev.output_tokens);
        if (r.ok) day_ttft[static_cast<std::size_t>(day)].Add(r.ttft_s);
      });
    }
    co_await sim.Delay(sim::Hours(2));
    serve.Shutdown();
  });
  sim.Run();

  static const char* kDays[] = {"Mon", "Tue", "Wed", "Thu",
                                "Fri", "Sat", "Sun"};
  TablePrinter table({"Day", "Requests", "p50 TTFT (s)", "p99 TTFT (s)",
                      "Max TTFT (s)"});
  for (int d = 0; d < 7; ++d) {
    const Samples& s = day_ttft[static_cast<std::size_t>(d)];
    table.AddRow({kDays[d], std::to_string(s.count()),
                  TablePrinter::Num(s.Median()), TablePrinter::Num(s.P99()),
                  TablePrinter::Num(s.max())});
  }
  std::printf("%s", table.ToString().c_str());

  const TimeSeries& mem = serve.monitor().MemorySeries(0);
  const TimeSeries& util = serve.monitor().UtilizationSeries(0);
  std::printf(
      "\nweek summary: mean GPU memory %.1f GiB (peak %.1f), mean SM "
      "utilization %.2f%%\nswap-ins=%llu (the tail TTFTs are morning "
      "swap-ins after idle nights)\n",
      mem.TimeWeightedMean(0, horizon), mem.MaxValue(),
      util.TimeWeightedMean(0, horizon) * 100.0,
      static_cast<unsigned long long>(serve.metrics().swap_ins));
  return 0;
}
