// Quickstart: serve two models on one simulated H100 with SwapServeLLM.
//
// Walks the full life cycle the paper describes: configuration ->
// initialization (cold start + snapshot + park) -> OpenAI-style requests ->
// on-demand hot swap -> metrics. Everything runs in virtual time, so the
// "87 seconds" of vLLM cold start finish in milliseconds of wall clock.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "core/swap_serve.h"
#include "hw/gpu_device.h"
#include "hw/gpu_spec.h"
#include "hw/link.h"
#include "model/catalog.h"
#include "sim/simulation.h"

using namespace swapserve;

int main() {
  // --- 1. The simulated machine: one H100 server -------------------------
  sim::Simulation sim;
  hw::HostSpec host = hw::HostSpec::H100Host();
  hw::GpuDevice gpu(sim, 0, hw::GpuSpec::H100Hbm3_80GB());
  hw::StorageDevice nvme(sim, "nvme", host.disk_read, sim::Seconds(0.1));

  // --- 2. Configuration (normally loaded from JSON; see §3.2) ------------
  auto config = core::Config::FromJsonText(R"({
    "global": {"queue_capacity": 32, "snapshot_budget_gib": 192},
    "models": [
      {"model": "llama-3.1-8b-fp16",    "engine": "vllm"},
      {"model": "deepseek-r1-7b-fp16",  "engine": "ollama"}
    ]
  })");
  SWAP_CHECK_MSG(config.ok(), config.status().ToString());

  model::ModelCatalog catalog = model::ModelCatalog::Default();
  SWAP_CHECK(config->Validate(catalog, /*gpu_count=*/1).ok());

  core::Hardware hardware;
  hardware.gpus = {&gpu};
  hardware.storage = &nvme;
  core::SwapServe serve(sim, *config, catalog, hardware);

  // --- 3. Drive the server inside the simulation -------------------------
  sim::Spawn([&]() -> sim::Task<> {
    // Initialization: each backend cold-starts once, is snapshotted with
    // the GPU-checkpoint mechanism, and parked. The GPU ends up empty.
    std::printf("initializing...\n");
    Status init = co_await serve.Initialize();
    SWAP_CHECK_MSG(init.ok(), init.ToString());
    std::printf("initialized at t=%.1fs; GPU in use: %s\n\n",
                sim.Now().ToSeconds(), gpu.used().ToString().c_str());

    // First request: pays a hot swap-in (seconds), not a cold start
    // (minutes).
    Result<core::ResponseChannelPtr> ch = serve.router().ChatCompletions(
        R"({
          "model": "llama-3.1-8b-fp16",
          "messages": [{"role": "user", "content":
            "Explain transparent GPU checkpointing in one paragraph."}],
          "max_tokens": 128, "temperature": 0, "seed": 42
        })");
    SWAP_CHECK_MSG(ch.ok(), ch.status().ToString());
    core::ChatResult first = co_await core::SwapServe::CollectResponse(*ch);
    std::printf("[llama-8b/vllm]   1st request: ttft=%6.2fs (swap-in "
                "%.2fs), %lld tokens\n",
                first.ttft_s, first.swap_wait_s,
                static_cast<long long>(first.output_tokens));

    // Second request to the same model: served resident.
    core::ChatResult second =
        co_await serve.ChatAndWait("llama-3.1-8b-fp16", 64, 128);
    std::printf("[llama-8b/vllm]   2nd request: ttft=%6.2fs (resident)\n",
                second.ttft_s);

    // Request for the other model: vLLM claims ~72 GiB, so the task
    // manager preempts it (demand-aware policy) to make room.
    core::ChatResult other =
        co_await serve.ChatAndWait("deepseek-r1-7b-fp16", 64, 128);
    std::printf("[ds-7b/ollama]    1st request: ttft=%6.2fs (swap-in "
                "%.2fs after preempting llama)\n",
                other.ttft_s, other.swap_wait_s);

    std::printf("\nGPU in use now: %s\n", gpu.used().ToString().c_str());
    std::printf("swap-ins=%llu swap-outs=%llu preemptions=%llu\n",
                static_cast<unsigned long long>(serve.metrics().swap_ins),
                static_cast<unsigned long long>(serve.metrics().swap_outs),
                static_cast<unsigned long long>(
                    serve.metrics().preemptions));
    serve.Shutdown();
  });

  sim.Run();
  std::printf("\nsimulation complete at t=%.1fs (%llu events)\n",
              sim.Now().ToSeconds(),
              static_cast<unsigned long long>(sim.processed_events()));
  return 0;
}
