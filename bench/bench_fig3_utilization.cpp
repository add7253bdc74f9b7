// Figure 3 reproduction: a month of serving six models for a small academic
// group (sporadic, low-volume load — e-INFRA CZ's H100 in the paper).
//
// The paper's figure shows the *problem*: dedicated deployments keep memory
// reserved around the clock while compute utilization stays near zero. We
// reproduce that with the dedicated baseline (one GPU per model) and then
// show the consolidation SwapServeLLM enables (all six on one H100).

#include <cstdio>

#include "bench/scenarios.h"

namespace swapserve::bench {
namespace {

void Run() {
  PrintHeader(
      "Figure 3: GPU utilization & memory over a month, six models",
      "Sporadic academic load (MMPP bursts). Dedicated = one GPU per model "
      "(the\npaper's observed cluster pattern); SwapServeLLM = all six on "
      "one H100.");

  const Fig3Month month = RunFig3Month();
  std::printf("Generated %zu requests over %.0f days.\n\n", month.requests,
              kFig3Days);
  const Fig3Run& ded = month.dedicated;
  const Fig3Run& swp = month.swapserve;

  TablePrinter table({"Deployment", "GPUs", "GPU-hours", "Mean mem (GiB)",
                      "Peak mem/GPU", "Mean SM util", "p99 TTFT (s)",
                      "Completed", "Swap-ins"});
  table.AddRow({"Dedicated (paper Fig.3)", "6",
                TablePrinter::Num(ded.gpu_hours, 0),
                TablePrinter::Num(ded.mean_mem_gib, 1),
                TablePrinter::Num(ded.peak_mem_gib, 1),
                TablePrinter::Num(ded.mean_util_pct, 2) + "%",
                TablePrinter::Num(ded.p99_ttft_s),
                std::to_string(ded.completed), "0"});
  table.AddRow({"SwapServeLLM", "1", TablePrinter::Num(swp.gpu_hours, 0),
                TablePrinter::Num(swp.mean_mem_gib, 1),
                TablePrinter::Num(swp.peak_mem_gib, 1),
                TablePrinter::Num(swp.mean_util_pct, 2) + "%",
                TablePrinter::Num(swp.p99_ttft_s),
                std::to_string(swp.completed), std::to_string(swp.swap_ins)});
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nShape checks (paper's motivation): dedicated GPUs hold memory "
      "continuously\nwhile SM utilization stays in low single digits; "
      "SwapServeLLM serves the same\ntrace on 1/6th of the GPU-hours at a "
      "bounded p99 TTFT cost.\n");
}

}  // namespace
}  // namespace swapserve::bench

int main() {
  swapserve::bench::Run();
  return 0;
}
