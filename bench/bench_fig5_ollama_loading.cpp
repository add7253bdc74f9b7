// Figure 5 reproduction: Ollama model loading from disk vs memory-backed
// filesystem vs SwapServeLLM in-memory snapshots, on the A100 server.
//
// The paper reports min-max ranges over repeated trials (page-cache state
// varies the effective disk rate). We model that with per-trial disk
// bandwidth draws. Anchors: DeepSeek-R1 1.5B — disk 4.7-11.3 s, memory
// 2.46-2.72 s, SwapServeLLM 0.87-1.21 s; 14B — disk 22.8-41.9 s, memory
// 3.7-5 s, SwapServeLLM 2.44-3.68 s.

#include <cstdio>

#include "baseline/ollama_lru.h"
#include "bench/common.h"
#include "sim/random.h"

namespace swapserve::bench {
namespace {

constexpr const char* kModels[] = {
    "deepseek-r1-1.5b-q4",  "deepseek-r1-1.5b-q8",  "deepseek-r1-1.5b-fp16",
    "deepseek-r1-7b-q4",    "deepseek-r1-7b-q8",    "deepseek-r1-7b-fp16",
    "deepseek-r1-8b-q4",    "deepseek-r1-8b-q8",    "deepseek-r1-8b-fp16",
    "deepseek-r1-14b-q4",   "deepseek-r1-14b-q8",   "deepseek-r1-14b-fp16",
    "llama-3.2-1b-fp16",    "llama-3.2-3b-fp16",    "llama-3.1-8b-fp16",
};

// One Ollama on-demand load on a fresh A100 bed.
double MeasureOllamaLoad(const std::string& model_id, bool tmpfs,
                         double disk_bw_scale) {
  Bed bed(Machine::kA100, /*gpu_count=*/1, tmpfs, disk_bw_scale);
  baseline::OllamaLruServing ollama(bed.sim, *bed.gpus[0], bed.storage);
  double load_s = 0;
  bed.RunTask([&]() -> sim::Task<> {
    std::vector<model::ModelSpec> specs = {
        bed.catalog.Find(model_id).value()};
    SWAP_CHECK((co_await ollama.Initialize(specs)).ok());
    Result<sim::SimDuration> t = co_await ollama.MeasureLoad(model_id);
    SWAP_CHECK_MSG(t.ok(), t.status().ToString());
    load_s = t->ToSeconds();
  });
  return load_s;
}

double MeasureSwapServe(const std::string& model_id) {
  Bed bed(Machine::kA100);
  core::Config cfg;
  core::ModelEntry entry;
  entry.model_id = model_id;
  entry.engine = "ollama";
  cfg.models.push_back(entry);
  core::SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
  bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await serve.Initialize()).ok());
    core::ChatResult r = co_await serve.ChatAndWait(model_id, 64, 16);
    SWAP_CHECK_MSG(r.ok, r.error);
    serve.Shutdown();
  });
  return serve.metrics().swap_in_latency_s.max();
}

void Run() {
  PrintHeader(
      "Figure 5: Ollama loading (disk / memory) vs SwapServeLLM (A100)",
      "Disk trials draw effective NVMe bandwidth per run (cold/warm page "
      "cache);\nranges are min-max over 5 trials, as in the paper's error "
      "bars.");

  TablePrinter table({"Model", "Disk (s)", "Memory (s)", "SwapServe (s)",
                      "vs disk", "vs memory"});
  sim::Rng trial_rng(0xf165);

  for (const char* model_id : kModels) {
    double disk_min = 1e18;
    double disk_max = 0;
    for (int trial = 0; trial < 5; ++trial) {
      // Cold page cache reads at ~0.5x the nominal rate, warm at ~1.1x.
      const double scale = trial_rng.Uniform(0.45, 1.1);
      const double t = MeasureOllamaLoad(model_id, /*tmpfs=*/false, scale);
      disk_min = std::min(disk_min, t);
      disk_max = std::max(disk_max, t);
    }
    const double mem_s = MeasureOllamaLoad(model_id, /*tmpfs=*/true, 1.0);
    const double swap_s = MeasureSwapServe(model_id);
    table.AddRow(
        {model_id,
         TablePrinter::Num(disk_min, 1) + "-" + TablePrinter::Num(disk_max, 1),
         TablePrinter::Num(mem_s), TablePrinter::Num(swap_s),
         TablePrinter::Num((1.0 - swap_s / disk_max) * 100.0, 0) + "-" +
             TablePrinter::Num((1.0 - swap_s / disk_min) * 100.0, 0) + "%",
         TablePrinter::Num((1.0 - swap_s / mem_s) * 100.0, 0) + "%"});
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
