// Ablation A6: proactive idle swap-out (extension to the paper's
// pressure-only eviction).
//
// Six models, one H100, sparse bursty traffic. Without the reaper, the
// working set accretes until memory pressure forces preemptions on the
// request path; with it, idle backends park early, trading extra swap-ins
// for lower resident memory and fewer on-path preemptions.

#include <cstdio>

#include "bench/scenarios.h"

namespace swapserve::bench {
namespace {

void Run() {
  PrintHeader(
      "Ablation A6: proactive idle swap-out (extension)",
      "Six Ollama backends, 4 h of sparse bursts. idle=0 is the paper's "
      "pressure-only\npolicy; smaller thresholds park idle models sooner.");

  TablePrinter table({"Idle threshold", "Mean GPU mem (GiB)",
                      "p99 TTFT (s)", "Swap-ins", "On-path preemptions",
                      "Completed"});
  for (double idle_s : {0.0, 1800.0, 600.0, 120.0}) {
    const TraceRun r = RunIdleReaper(idle_s);
    table.AddRow({idle_s == 0 ? "off (paper)"
                              : TablePrinter::Num(idle_s, 0) + "s",
                  TablePrinter::Num(r.mean_mem_gib, 1),
                  TablePrinter::Num(r.p99_ttft_s),
                  std::to_string(r.swap_ins),
                  std::to_string(r.preemptions),
                  std::to_string(r.completed)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nShape: tighter thresholds cut mean resident memory (freeing room "
      "for more\ntenants) at the cost of extra swap-ins; p99 TTFT moves by "
      "at most one swap-in\nlatency because re-warms happen off the busy "
      "paths.\n");
}

}  // namespace
}  // namespace swapserve::bench

int main() {
  swapserve::bench::Run();
  return 0;
}
