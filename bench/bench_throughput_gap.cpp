// The §2.3 motivation: Ollama loads fast but serves slow. Reproduces the
// Red Hat benchmarking observation the paper cites — the reason "just use
// Ollama everywhere" is not a substitute for hot-swapping the
// high-throughput engines.

#include <cstdio>

#include "bench/scenarios.h"

namespace swapserve::bench {
namespace {

void Run() {
  PrintHeader(
      "Throughput gap: why hot-swapping beats \"just use Ollama\" (§2.3)",
      "LLaMA 3.1-8B FP16 on H100. Ollama cold-starts in seconds but its "
      "llama.cpp\nkernels reach a far smaller fraction of peak than "
      "vLLM/TRT (Red Hat's\nbenchmark, cited by the paper) — SwapServeLLM "
      "keeps the fast engines AND\nfast (re)starts.");

  TablePrinter table({"Engine", "Decode tok/s (1 stream)",
                      "Decode tok/s (16 streams)", "TTFT 512-tok (ms)",
                      "Cold start (s)"});
  for (auto [kind, label] :
       {std::pair{model::EngineKind::kOllama, "Ollama"},
        std::pair{model::EngineKind::kSglang, "SGLang"},
        std::pair{model::EngineKind::kVllm, "vLLM"},
        std::pair{model::EngineKind::kTrtllm, "TensorRT-LLM"}}) {
    const Throughput t = MeasureThroughput(kind, "llama-3.1-8b-fp16");
    // Cold start for context (same numbers as Fig. 2).
    const double cold_s =
        MeasureColdStart(kind, "llama-3.1-8b-fp16").seconds;
    table.AddRow({label, TablePrinter::Num(t.tokens_per_s_b1, 0),
                  TablePrinter::Num(t.tokens_per_s_b16, 0),
                  TablePrinter::Num(t.ttft_ms, 0),
                  TablePrinter::Num(cold_s, 1)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nShape: Ollama trades ~2x decode throughput and prefill speed for "
      "its fast\nloading; batched throughput scales with batch for every "
      "engine. SwapServeLLM\nmakes the vLLM column restartable in ~6 s "
      "instead of ~85 s.\n");
}

}  // namespace
}  // namespace swapserve::bench

int main() {
  swapserve::bench::Run();
  return 0;
}
