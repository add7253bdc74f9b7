// Ablation A2: the memory reservation mechanism, reproducing §3.4's worked
// example on one A100-80GB:
//
//   t=0   requests arrive for Gemma 7B (~19 GiB) and DeepSeek-Coder 6.7B
//         (~15 GiB) simultaneously -> both reservations grant at once and
//         the swap-ins overlap.
//   t=60  a request for LLaMA 3.3 70B FP8 (~75 GiB) arrives -> the task
//         manager queues it, preempts both small models, then grants.
//   t=60+ a request for Gemma 7B right behind the 70B -> FIFO: it must not
//         bypass the queued 70B reservation.

#include <cstdio>

#include "bench/scenarios.h"

namespace swapserve::bench {
namespace {

// What the timeline says when each ReservationRequest is issued and served.
constexpr const char* kIssued[] = {
    "gemma-7b request issued", "deepseek-coder request issued",
    "llama-3.3-70b request issued",
    "gemma-7b follow-up issued (behind 70B in the queue)"};
constexpr const char* kServed[] = {"gemma-7b served", "deepseek-coder served",
                                   "llama-3.3-70b served",
                                   "gemma-7b follow-up served"};

void Run() {
  PrintHeader(
      "Ablation A2: memory reservation queue (the §3.4 scenario)",
      "Scoped acquire-release reservations, FIFO grants, demand-aware "
      "reclaim.");

  const Reservation run = RunReservation();
  std::printf("Timeline (t=0 at end of initialization):\n");
  for (const ReservationStep& step : run.timeline) {
    const auto i = static_cast<std::size_t>(step.request);
    if (step.served) {
      std::printf("  t=%8.2fs  %s (swap wait %ss)\n", step.t_s, kServed[i],
                  TablePrinter::Num(step.swap_wait_s).c_str());
    } else {
      std::printf("  t=%8.2fs  %s\n", step.t_s, kIssued[i]);
    }
  }
  std::printf(
      "\nChecks: the two small swap-ins overlap (served within ~the same "
      "window);\nthe 70B request forces two preemptions (total preemptions: "
      "%llu); the\nfollow-up gemma request queues behind the outstanding "
      "70B reservation (FIFO,\nno bypass) and is served only after the 70B "
      "ran — by evicting it in turn.\n",
      static_cast<unsigned long long>(run.preemptions));
}

}  // namespace
}  // namespace swapserve::bench

int main() {
  swapserve::bench::Run();
  return 0;
}
