// Figure 5 reproduction: Ollama model loading from disk vs memory-backed
// filesystem vs SwapServeLLM in-memory snapshots, on the A100 server.
//
// The paper reports min-max ranges over repeated trials (page-cache state
// varies the effective disk rate). We model that with per-trial disk
// bandwidth draws. Anchors: DeepSeek-R1 1.5B — disk 4.7-11.3 s, memory
// 2.46-2.72 s, SwapServeLLM 0.87-1.21 s; 14B — disk 22.8-41.9 s, memory
// 3.7-5 s, SwapServeLLM 2.44-3.68 s.

#include <cstdio>

#include "bench/scenarios.h"

namespace swapserve::bench {
namespace {

void Run() {
  PrintHeader(
      "Figure 5: Ollama loading (disk / memory) vs SwapServeLLM (A100)",
      "Disk trials draw effective NVMe bandwidth per run (cold/warm page "
      "cache);\nranges are min-max over 5 trials, as in the paper's error "
      "bars.");

  TablePrinter table({"Model", "Disk (s)", "Memory (s)", "SwapServe (s)",
                      "vs disk", "vs memory"});
  for (const Fig5Row& row : RunFig5()) {
    const double swap_s = row.swapserve_s;
    table.AddRow(
        {row.model_id,
         TablePrinter::Num(row.disk_min_s, 1) + "-" +
             TablePrinter::Num(row.disk_max_s, 1),
         TablePrinter::Num(row.memory_s), TablePrinter::Num(swap_s),
         TablePrinter::Num((1.0 - swap_s / row.disk_max_s) * 100.0, 0) + "-" +
             TablePrinter::Num((1.0 - swap_s / row.disk_min_s) * 100.0, 0) +
             "%",
         TablePrinter::Num((1.0 - swap_s / row.memory_s) * 100.0, 0) + "%"});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nPaper anchors: DS-1.5B disk 4.7-11.3s / mem 2.46-2.72s / swap "
      "0.87-1.21s;\nDS-14B disk 22.8-41.9s / mem 3.7-5s / swap 2.44-3.68s.\n"
      "Shape checks: disk >> memory > SwapServeLLM for every model; lower "
      "bit-width\nquantizations load faster; improvements ~70-90%% vs disk "
      "and ~25-60%% vs memory.\n");
}

}  // namespace
}  // namespace swapserve::bench

int main() {
  swapserve::bench::Run();
  return 0;
}
