// Multi-model serving under bursty traffic: six models share one H100.
//
// The scenario the paper's introduction motivates — a provider hosting many
// specialized models (reasoning, coding, chat) whose combined footprint
// exceeds one GPU, hit by unpredictable bursts. SwapServeLLM keeps only the
// active set resident and hot-swaps the rest.
//
//   ./build/examples/multi_model_serving

#include <cstdio>

#include "core/swap_serve.h"
#include "hw/gpu_device.h"
#include "hw/gpu_spec.h"
#include "hw/link.h"
#include "model/calibration.h"
#include "model/catalog.h"
#include "sim/simulation.h"
#include "util/table.h"
#include "workload/trace.h"

using namespace swapserve;

namespace {

struct ModelRole {
  const char* model_id;
  const char* role;
  double weight;  // popularity
};

constexpr ModelRole kFleet[] = {
    {"deepseek-r1-14b-fp16", "reasoning", 3.0},
    {"deepseek-coder-6.7b-fp16", "coding", 4.0},
    {"llama-3.1-8b-fp16", "chat", 5.0},
    {"gemma-7b-fp16", "summarization", 1.5},
    {"deepseek-r1-7b-fp16", "math", 1.0},
    {"llama-3.2-1b-fp16", "classification", 6.0},
};

}  // namespace

int main() {
  sim::Simulation sim;
  hw::GpuDevice gpu(sim, 0, hw::GpuSpec::H100Hbm3_80GB());
  hw::StorageDevice nvme(sim, "nvme", hw::HostSpec::H100Host().disk_read,
                         sim::Seconds(0.1));
  model::ModelCatalog catalog = model::ModelCatalog::Default();

  core::Config config;
  for (const ModelRole& m : kFleet) {
    core::ModelEntry entry;
    entry.model_id = m.model_id;
    entry.engine = "ollama";  // lightweight backends; mixes are fine too
    config.models.push_back(entry);
  }
  SWAP_CHECK(config.Validate(catalog, 1).ok());

  core::Hardware hardware{.gpus = {&gpu}, .storage = &nvme};
  core::SwapServe serve(sim, config, catalog, hardware);

  // Two hours of bursty traffic: overlapping MMPP bursts per model.
  const double horizon = 2 * 3600.0;
  std::vector<std::unique_ptr<workload::MmppRate>> rates;
  workload::RequestProfile profile = workload::RequestProfile::ShortQa();
  std::vector<workload::ModelWorkload> mix;
  std::uint64_t seed = 0xec0;
  for (const ModelRole& m : kFleet) {
    rates.push_back(std::make_unique<workload::MmppRate>(
        /*quiet_rps=*/0.002 * m.weight, /*burst_rps=*/0.08 * m.weight,
        /*mean_quiet_s=*/1500, /*mean_burst_s=*/240, seed++, horizon));
    mix.push_back({m.model_id, rates.back().get(), &profile});
  }
  std::vector<workload::TraceEvent> trace =
      workload::GenerateTrace(mix, horizon, 0xec0);

  double total_resident_gib = 0;
  for (const ModelRole& m : kFleet) {
    total_resident_gib +=
        model::ProfileFor(model::EngineKind::kOllama)
            .ResidentBytes(catalog.Find(m.model_id).value())
            .AsGiB();
  }
  std::printf("fleet footprint: %.1f GiB across 6 models; GPU: 80 GiB\n",
              total_resident_gib);
  std::printf("replaying %zu requests over %.0f minutes...\n\n",
              trace.size(), horizon / 60);

  sim::Spawn([&]() -> sim::Task<> {
    SWAP_CHECK((co_await serve.Initialize()).ok());
    const double start = sim.Now().ToSeconds();
    for (const workload::TraceEvent& ev : trace) {
      co_await sim.WaitUntil(sim::SimTime(
          static_cast<std::int64_t>((start + ev.time_s) * 1e9)));
      sim::Spawn([&serve, ev]() -> sim::Task<> {
        (void)co_await serve.ChatAndWait(ev.model_id, ev.prompt_tokens,
                                         ev.output_tokens);
      });
    }
    co_await sim.Delay(sim::Minutes(10));  // drain
    serve.Shutdown();
  });
  sim.Run();

  TablePrinter table({"Model", "Role", "Completed", "Resident-served",
                      "After swap-in", "p50 TTFT (s)", "p99 TTFT (s)",
                      "Mean swap wait (s)"});
  for (const ModelRole& m : kFleet) {
    const core::ModelMetrics& mm = serve.metrics().per_model().at(m.model_id);
    table.AddRow({m.model_id, m.role, std::to_string(mm.completed),
                  std::to_string(mm.served_resident),
                  std::to_string(mm.served_after_swap_in),
                  TablePrinter::Num(mm.ttft_s.Median()),
                  TablePrinter::Num(mm.ttft_s.P99()),
                  TablePrinter::Num(mm.swap_wait_s.mean())});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nsystem: swap-ins=%llu swap-outs=%llu preemptions=%llu rejected=%llu"
      "\nmean swap-in latency: %.2fs\n",
      static_cast<unsigned long long>(serve.metrics().swap_ins),
      static_cast<unsigned long long>(serve.metrics().swap_outs),
      static_cast<unsigned long long>(serve.metrics().preemptions),
      static_cast<unsigned long long>(serve.metrics().TotalRejected()),
      serve.metrics().swap_in_latency_s.mean());
  std::printf(
      "takeaway: six models share one GPU; hot models stay resident (the\n"
      "demand-aware policy evicts idle ones), and the occasional swap-in\n"
      "costs seconds, not the minutes a cold start would.\n");
  return 0;
}
