// Figure 6b reproduction: SwapServeLLM swap-in vs Ollama's own on-demand
// model loading, on H100.
//
// Paper endpoints: LLaMA-3.2-1B-FP16 — swap-in 0.75 s vs 1.96 s load
// (2.6x); DeepSeek-R1-14B-FP16 — swap-in 4.6 s vs 5.93 s load (~29%
// faster). GPU memory 3.6 GB and 30.5 GB respectively.

#include <cstdio>

#include "bench/scenarios.h"

namespace swapserve::bench {
namespace {

struct Row {
  const char* model_id;
  double paper_swapin_s;
  double paper_load_s;
};

constexpr Row kModels[] = {
    {"llama-3.2-1b-fp16", 0.75, 1.96},
    {"llama-3.2-3b-fp16", 1.4, 2.4},
    {"deepseek-r1-7b-fp16", 2.7, 3.5},
    {"llama-3.1-8b-fp16", 2.8, 3.6},
    {"deepseek-r1-14b-fp16", 4.6, 5.93},
};

void Run() {
  PrintHeader(
      "Figure 6b: SwapServeLLM swap-in vs Ollama model loading (H100)",
      "Both paths start with the model out of GPU memory; Ollama reloads "
      "weights\nfrom NVMe, SwapServeLLM restores its in-memory snapshot.");

  TablePrinter table({"Model", "GPU mem (GiB)", "SwapServe (s)",
                      "Paper", "Ollama load (s)", "Paper load",
                      "Improvement"});

  for (const Row& row : kModels) {
    const SwapIn swap = MeasureSwapIn(Machine::kH100, row.model_id,
                                      model::EngineKind::kOllama,
                                      /*sleep_mode=*/true);
    const double swap_in_s = swap.swap_in_s;
    const double load_s = MeasureOllamaLoad(Machine::kH100, row.model_id,
                                            /*tmpfs=*/false, 1.0);
    const double improvement = (load_s - swap_in_s) / load_s * 100.0;
    table.AddRow({row.model_id, TablePrinter::Num(swap.resident_gib, 1),
                  TablePrinter::Num(swap_in_s),
                  TablePrinter::Num(row.paper_swapin_s),
                  TablePrinter::Num(load_s),
                  TablePrinter::Num(row.paper_load_s),
                  TablePrinter::Num(improvement, 0) + "%"});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nShape checks: SwapServeLLM beats Ollama loading at every size; the "
      "margin\nshrinks as models grow (restore and reload both become "
      "bandwidth-bound) —\npaper: 2.6x at 1B down to ~29%% at 14B.\n");
}

}  // namespace
}  // namespace swapserve::bench

int main() {
  swapserve::bench::Run();
  return 0;
}
