// Ablation A3: vLLM sleep-mode optimization (§4.2).
//
// With sleep mode, the preemption path discards the paged-KV arena before
// checkpointing, so only the weights round-trip through host RAM; without
// it the full ~72 GiB resident set is dirty. This drives snapshot size,
// host-RAM pressure, and both swap latencies.

#include <cstdio>

#include "bench/scenarios.h"

namespace swapserve::bench {
namespace {

void Run() {
  PrintHeader(
      "Ablation A3: vLLM sleep mode on/off",
      "Sleep mode = discard KV arena before checkpoint (only weights are "
      "dirty).\nOff = the whole gpu_memory_utilization claim round-trips.");

  TablePrinter table({"Model", "Sleep", "Snapshot (GiB)", "Swap-out (s)",
                      "Swap-in (s)"});
  for (const char* model : {"llama-3.2-1b-fp16", "llama-3.1-8b-fp16",
                            "deepseek-r1-14b-fp16"}) {
    for (bool sleep : {true, false}) {
      const SwapIn r = MeasureSwapIn(Machine::kH100, model,
                                     model::EngineKind::kVllm, sleep);
      table.AddRow({model, sleep ? "on" : "off",
                    TablePrinter::Num(r.snapshot_gib, 1),
                    TablePrinter::Num(r.swap_out_s),
                    TablePrinter::Num(r.swap_in_s)});
    }
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nShape: sleep mode shrinks the host snapshot from ~72 GiB to the "
      "weight bytes\nand cuts both swap directions — it is why a host with "
      "~200 GB RAM can keep\nmany vLLM backends hot-swappable at once.\n");
}

}  // namespace
}  // namespace swapserve::bench

int main() {
  swapserve::bench::Run();
  return 0;
}
