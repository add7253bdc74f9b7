// Multi-GPU orchestration (§6): four H100s, eight large vLLM backends,
// per-device memory reservations.
//
// Each GPU hosts two backends that cannot be resident together (each claims
// ~72 GiB), so swap traffic is constant — but reservations are per-device,
// so a swap storm on GPU 0 never delays GPU 3.
//
//   ./build/examples/multi_gpu_orchestration

#include <cstdio>

#include "core/swap_serve.h"
#include "hw/gpu_device.h"
#include "hw/gpu_spec.h"
#include "hw/link.h"
#include "model/catalog.h"
#include "sim/combinators.h"
#include "sim/simulation.h"
#include "util/table.h"

using namespace swapserve;

namespace {

constexpr const char* kModels[] = {
    "llama-3.2-1b-fp16", "deepseek-r1-7b-fp16",   // gpu 0
    "llama-3.2-3b-fp16", "deepseek-r1-8b-fp16",   // gpu 1
    "llama-3.1-8b-fp16", "deepseek-r1-14b-fp16",  // gpu 2
    "gemma-3-4b-fp16",   "gemma-3-12b-fp16",      // gpu 3
};

}  // namespace

int main() {
  sim::Simulation sim;
  std::vector<std::unique_ptr<hw::GpuDevice>> gpus;
  for (int i = 0; i < 4; ++i) {
    gpus.push_back(std::make_unique<hw::GpuDevice>(
        sim, i, hw::GpuSpec::H100Hbm3_80GB()));
  }
  hw::StorageDevice nvme(sim, "nvme", hw::HostSpec::H100Host().disk_read,
                         sim::Seconds(0.1));
  model::ModelCatalog catalog = model::ModelCatalog::Default();

  core::Config config;
  config.global.snapshot_budget_gib = 400;  // 8 vLLM snapshots
  for (std::size_t i = 0; i < std::size(kModels); ++i) {
    core::ModelEntry entry;
    entry.model_id = kModels[i];
    entry.engine = "vllm";
    entry.gpu = static_cast<int>(i / 2);  // two backends per GPU
    config.models.push_back(entry);
  }
  SWAP_CHECK(config.Validate(catalog, 4).ok());

  core::Hardware hardware;
  for (auto& gpu : gpus) hardware.gpus.push_back(gpu.get());
  hardware.storage = &nvme;
  core::SwapServe serve(sim, config, catalog, hardware);

  sim::Spawn([&]() -> sim::Task<> {
    std::printf("initializing 8 vLLM backends (sequential cold starts + "
                "snapshots)...\n");
    SWAP_CHECK((co_await serve.Initialize()).ok());
    std::printf("done at t=%.0fs\n\n", sim.Now().ToSeconds());

    // Three waves: every model requested simultaneously. Within a GPU the
    // two backends must take turns; across GPUs everything is parallel.
    for (int wave = 0; wave < 3; ++wave) {
      const sim::SimTime t0 = sim.Now();
      std::vector<sim::Task<>> requests;
      for (const char* m : kModels) {
        requests.push_back([](core::SwapServe& s,
                              const char* model) -> sim::Task<> {
          core::ChatResult r = co_await s.ChatAndWait(model, 128, 64);
          SWAP_CHECK_MSG(r.ok, r.error);
        }(serve, m));
      }
      co_await sim::WhenAll(sim, requests);
      std::printf("wave %d: all 8 models served in %.1fs\n", wave + 1,
                  (sim.Now() - t0).ToSeconds());
    }
    serve.Shutdown();
  });
  sim.Run();

  TablePrinter table({"GPU", "Backends", "In use", "Swap-ins observed"});
  std::vector<std::string> names[4];
  for (std::size_t i = 0; i < std::size(kModels); ++i) {
    names[i / 2].push_back(kModels[i]);
  }
  for (int g = 0; g < 4; ++g) {
    std::uint64_t swaps = 0;
    for (const std::string& m : names[g]) {
      swaps += serve.metrics().per_model().at(m).served_after_swap_in;
    }
    table.AddRow({std::to_string(g), names[g][0] + ", " + names[g][1],
                  gpus[static_cast<std::size_t>(g)]->used().ToString(),
                  std::to_string(swaps)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nsystem totals: swap-ins=%llu preemptions=%llu, mean swap-in "
      "%.2fs\nNote how each wave costs ~2 swap cycles of wall time, not 8:\n"
      "the four GPUs' reservation queues operate independently (§6).\n",
      static_cast<unsigned long long>(serve.metrics().swap_ins),
      static_cast<unsigned long long>(serve.metrics().preemptions),
      serve.metrics().swap_in_latency_s.mean());
  return 0;
}
