// Ablation A4: consolidation sweep — the paper's cost-effectiveness claim.
//
// N models under a moderate diurnal day of traffic: N dedicated GPUs
// (always-on) vs SwapServeLLM on a single GPU. Reports GPU-hours, p99
// TTFT, and the latency price paid for the N-fold hardware reduction.

#include <cstdio>

#include "bench/scenarios.h"

namespace swapserve::bench {
namespace {

void Run() {
  PrintHeader(
      "Ablation A4: consolidation — N models on 1 GPU vs N dedicated GPUs",
      "One day of diurnal traffic per model count. GPU-hour reduction vs "
      "p99 TTFT cost.");

  TablePrinter table({"Models", "Deployment", "GPU-hours", "p50 TTFT (s)",
                      "p99 TTFT (s)", "Completed", "GPU-hour saving"});
  for (int n : {2, 4, 6, 8, 12}) {
    const Consolidation run = RunConsolidation(n);
    const TraceRun& ded = run.dedicated;
    const TraceRun& swp = run.swapserve;
    table.AddRow({std::to_string(n), "dedicated",
                  TablePrinter::Num(ded.gpu_hours, 0),
                  TablePrinter::Num(ded.p50_ttft_s),
                  TablePrinter::Num(ded.p99_ttft_s),
                  std::to_string(ded.completed), "-"});
    table.AddRow({std::to_string(n), "swapserve",
                  TablePrinter::Num(swp.gpu_hours, 0),
                  TablePrinter::Num(swp.p50_ttft_s),
                  TablePrinter::Num(swp.p99_ttft_s),
                  std::to_string(swp.completed),
                  TablePrinter::Num(
                      (1.0 - swp.gpu_hours / ded.gpu_hours) * 100.0, 0) +
                      "%"});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nShape: GPU-hour savings grow linearly with N while p99 TTFT rises "
      "by at most\na few swap-in latencies — hot-swapping trades bounded "
      "tail latency for\nproportional hardware cost (the paper's §6 "
      "conclusion).\n");
}

}  // namespace
}  // namespace swapserve::bench

int main() {
  swapserve::bench::Run();
  return 0;
}
