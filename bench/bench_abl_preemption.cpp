// Ablation A1: preemption policy comparison (§3.5).
//
// Six Ollama-backed models whose combined footprint (~107 GiB) exceeds one
// H100, under a popularity-skewed bursty workload — every swap-in must
// evict somebody. The paper's demand-aware policy (shortest queue, LRU
// tie-break) is compared against pure LRU, random, and largest-first.

#include <cstdio>

#include "bench/scenarios.h"

namespace swapserve::bench {
namespace {

void Run() {
  PrintHeader(
      "Ablation A1: preemption policy (demand-aware vs alternatives)",
      "Six models, ~107 GiB combined, one 80 GiB H100; popularity-skewed "
      "load.\nDemand-aware (the paper's policy) should disrupt busy models "
      "least.");

  TablePrinter table({"Policy", "p50 TTFT (s)", "p99 TTFT (s)",
                      "Mean swap wait (s)", "Preemptions", "Completed"});
  for (core::PreemptionPolicy policy :
       {core::PreemptionPolicy::kDemandAware,
        core::PreemptionPolicy::kLruOnly, core::PreemptionPolicy::kRandom,
        core::PreemptionPolicy::kLargestFirst}) {
    const TraceRun r = RunPreemption(policy);
    table.AddRow({std::string(core::PreemptionPolicyName(policy)),
                  TablePrinter::Num(r.p50_ttft_s),
                  TablePrinter::Num(r.p99_ttft_s),
                  TablePrinter::Num(r.mean_swap_wait_s),
                  std::to_string(r.preemptions),
                  std::to_string(r.completed)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nExpected shape: demand-aware <= lru-only < random/largest-first "
      "on p99 TTFT\nand preemption count — evicting idle backends avoids "
      "swap ping-pong on hot ones.\n");
}

}  // namespace
}  // namespace swapserve::bench

int main() {
  swapserve::bench::Run();
  return 0;
}
