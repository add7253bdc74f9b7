// Figure 6a reproduction: SwapServeLLM on-demand swap-in latency with the
// vLLM backend vs vLLM cold start, on H100.
//
// Paper: swap-in 5.5 s (LLaMA-3.2-1B) to 7.5 s (DeepSeek-R1 14B) at 72-73
// GB resident; cold starts 1m41s to 2m53s; headline speedup ~18-31x.

#include <cstdio>

#include "bench/scenarios.h"

namespace swapserve::bench {
namespace {

struct Row {
  const char* model_id;
  double paper_swapin_s;  // from Fig. 6a (interpolated for mid sizes)
};

constexpr Row kModels[] = {
    {"llama-3.2-1b-fp16", 5.5},
    {"llama-3.2-3b-fp16", 5.8},
    {"deepseek-r1-7b-fp16", 6.4},
    {"llama-3.1-8b-fp16", 6.5},
    {"deepseek-r1-14b-fp16", 7.5},
};

void Run() {
  PrintHeader(
      "Figure 6a: SwapServeLLM swap-in latency, vLLM backend (H100)",
      "Swap-in restores a fully-initialized engine (sleep-mode snapshot);\n"
      "cold start includes container + engine + model initialization.");

  TablePrinter table({"Model", "GPU mem (GiB)", "Swap-in (s)",
                      "Paper swap-in", "Cold start (s)", "Speedup"});
  double min_speedup = 1e9;
  double max_speedup = 0;

  for (const Row& row : kModels) {
    const SwapIn swap = MeasureSwapIn(Machine::kH100, row.model_id,
                                      model::EngineKind::kVllm,
                                      /*sleep_mode=*/true);
    const double swap_in_s = swap.swap_in_s;
    const double cold_s =
        MeasureColdStart(model::EngineKind::kVllm, row.model_id).seconds;
    const double speedup = cold_s / swap_in_s;
    min_speedup = std::min(min_speedup, speedup);
    max_speedup = std::max(max_speedup, speedup);
    table.AddRow({row.model_id, TablePrinter::Num(swap.resident_gib, 1),
                  TablePrinter::Num(swap_in_s),
                  TablePrinter::Num(row.paper_swapin_s, 1),
                  TablePrinter::Num(cold_s),
                  TablePrinter::Num(speedup, 1) + "x"});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nHeadline: swap-in is %.0fx-%.0fx faster than vLLM cold start "
      "(paper: ~18x-31x).\n"
      "Shape checks: all backends sit at ~72 GiB resident regardless of "
      "model size\n(vLLM preallocates gpu_memory_utilization*HBM); swap-in "
      "grows with weight bytes only.\n",
      min_speedup, max_speedup);
}

// Telemetry artifacts: a two-model contention run whose trace shows the
// full swap-in sub-span ladder (reserve -> h2d -> remap -> unlock -> thaw)
// and whose metrics carry per-model TTFT histograms.
void EmitArtifacts() {
  const char* trace_path = "fig6a_trace.json";
  const char* prom_path = "fig6a_metrics.prom";
  WriteFig6aArtifacts(trace_path, prom_path);
  std::printf(
      "\nTelemetry artifacts:\n"
      "  %s  (Chrome trace JSON; open in https://ui.perfetto.dev)\n"
      "  %s  (Prometheus text exposition)\n",
      trace_path, prom_path);
}

}  // namespace
}  // namespace swapserve::bench

int main() {
  swapserve::bench::Run();
  swapserve::bench::EmitArtifacts();
  return 0;
}
