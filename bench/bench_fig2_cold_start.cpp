// Figure 2 reproduction: cold-start latency (container startup + model
// initialization) for the four inference engines on H100.
//
// The paper's anchor numbers for LLaMA 3.1-8B: Ollama 4.38 s, SGLang
// 21.68 s, vLLM 87.28 s, TensorRT-LLM 124.48 s.

#include <cstdio>
#include <map>

#include "bench/scenarios.h"

namespace swapserve::bench {
namespace {

void Run() {
  PrintHeader(
      "Figure 2: cold-start latency incl. container startup (H100)",
      "Per engine x model. Paper anchors for LLaMA 3.1-8B: Ollama 4.38s, "
      "SGLang 21.68s, vLLM 87.28s, TensorRT-LLM 124.48s.");

  const std::vector<std::string> models = {
      "llama-3.2-1b-fp16",    "llama-3.2-3b-fp16",   "llama-3.1-8b-fp16",
      "deepseek-r1-7b-fp16",  "deepseek-r1-14b-fp16", "gemma-3-12b-fp16",
  };
  const std::vector<std::pair<model::EngineKind, const char*>> engines = {
      {model::EngineKind::kOllama, "Ollama"},
      {model::EngineKind::kSglang, "SGLang"},
      {model::EngineKind::kVllm, "vLLM"},
      {model::EngineKind::kTrtllm, "TensorRT-LLM"},
  };

  std::vector<std::string> headers = {"Model"};
  for (const auto& [kind, label] : engines) {
    headers.push_back(std::string(label) + " (s)");
  }
  TablePrinter table(headers);

  std::map<std::string, double> llama8b;
  for (const std::string& model : models) {
    std::vector<std::string> row = {model};
    for (const auto& [kind, label] : engines) {
      const double t = MeasureColdStart(kind, model).seconds;
      row.push_back(TablePrinter::Num(t));
      if (model == "llama-3.1-8b-fp16") llama8b[label] = t;
    }
    table.AddRow(std::move(row));
  }
  std::printf("%s", table.ToString().c_str());

  std::printf("\nLLaMA 3.1-8B anchor comparison (measured vs paper):\n");
  std::printf("  Ollama       %7.2f s   (paper   4.38 s)\n",
              llama8b["Ollama"]);
  std::printf("  SGLang       %7.2f s   (paper  21.68 s)\n",
              llama8b["SGLang"]);
  std::printf("  vLLM         %7.2f s   (paper  87.28 s)\n",
              llama8b["vLLM"]);
  std::printf("  TensorRT-LLM %7.2f s   (paper 124.48 s)\n",
              llama8b["TensorRT-LLM"]);
  std::printf(
      "\nShape check: Ollama << SGLang << vLLM << TRT-LLM on every model,\n"
      "spanning seconds to minutes — the cold-start gap the paper targets.\n");
}

}  // namespace
}  // namespace swapserve::bench

int main() {
  swapserve::bench::Run();
  return 0;
}
