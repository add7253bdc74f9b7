#include "model/calibration.h"

#include <array>
#include <cmath>
#include <map>
#include <utility>

#include "util/status.h"

namespace swapserve::model {
namespace {

// Paper Table 1, verbatim (seconds). Keyed by the FP16 catalog id.
struct Table1Row {
  double total;
  double load;
  double compile;
  double cuda_graphs;
};

const std::map<std::string, Table1Row>& Table1() {
  static const std::map<std::string, Table1Row> rows = {
      {"deepseek-r1-14b-fp16", {82.39, 5.17, 43.18, 21.00}},
      {"deepseek-r1-8b-fp16", {55.17, 3.05, 29.13, 17.00}},
      {"deepseek-r1-7b-fp16", {51.03, 2.88, 26.58, 16.33}},
      {"deepseek-r1-1.5b-fp16", {49.81, 1.01, 26.52, 16.00}},
      {"gemma-3-27b-fp16", {160.30, 9.11, 79.67, 32.33}},
      {"gemma-3-12b-fp16", {123.71, 4.35, 63.42, 27.00}},
      {"gemma-3-4b-fp16", {89.26, 1.91, 47.50, 22.00}},
      {"llama-3.1-8b-fp16", {55.41, 3.11, 29.33, 17.00}},
      {"llama-3.2-3b-fp16", {49.41, 1.48, 26.38, 16.00}},
      {"llama-3.2-1b-fp16", {34.14, 0.85, 16.85, 14.00}},
  };
  return rows;
}

}  // namespace

bool HasVllmCalibration(const ModelSpec& model) {
  return Table1().contains(model.id);
}

InitPhases VllmInitModel(const ModelSpec& model, BytesPerSecond disk_read) {
  // Weight load is physical: open overhead + bytes / effective read rate.
  // (Table 1's Load column fits 0.4 s + bytes / 6 GB/s on the H100 host.)
  const sim::SimDuration load =
      sim::Seconds(0.4) +
      sim::Seconds(disk_read.SecondsFor(model.WeightBytes()));

  auto it = Table1().find(model.id);
  if (it != Table1().end()) {
    const Table1Row& row = it->second;
    const double other =
        row.total - row.load - row.compile - row.cuda_graphs;
    return InitPhases{
        .weight_load = load,
        .compile = sim::Seconds(row.compile),
        .cuda_graphs = sim::Seconds(row.cuda_graphs),
        .other = sim::Seconds(other),
    };
  }

  // Formula fallback fitted against Table 1. Gemma's longer compile times
  // come from its larger layer count and interleaved attention variants, so
  // the fit uses layers as well as parameters.
  const double p = model.params_billion;
  const double layers = model.num_layers;
  double compile = 10.0 + 1.55 * p + 0.35 * layers;
  if (model.family == ModelFamily::kGemma) compile *= 1.55;
  const double cuda_graphs = 13.0 + 0.72 * p;
  const double other = 0.2 * (compile + cuda_graphs);
  return InitPhases{
      .weight_load = load,
      .compile = sim::Seconds(compile),
      .cuda_graphs = sim::Seconds(cuda_graphs),
      .other = sim::Seconds(other),
  };
}

RestoreModel VllmRestoreH100() {
  // Two-point fit to Fig. 6a. The total claim is ~72 GB at every size, so
  // a larger model means more dirty weights and a smaller clean arena:
  //   1B:  2.45 + 70/25 + 2.5/8.9  = 5.5 s
  //   14B: 2.45 + 43/25 + 29.5/8.9 = 7.5 s
  return RestoreModel{
      .fixed = sim::Seconds(2.45),
      .remap_bw = GBps(25.0),
      .copy_bw = GBps(8.9),
  };
}

RestoreModel OllamaRestoreH100() {
  // Two-point fit to Fig. 6b (0.75 s @ 3.6 GB; 4.6 s @ 30.5 GB); all pages
  // dirty, so remap_bw is irrelevant but kept consistent.
  return RestoreModel{
      .fixed = sim::Seconds(0.24),
      .remap_bw = GBps(25.0),
      .copy_bw = GBps(7.0),
  };
}

RestoreModel OllamaRestoreA100() {
  // Fig. 5's SwapServeLLM series (A100, CUDA 12.8): slightly higher copy
  // rate than the H100 measurement (different driver generation).
  return RestoreModel{
      .fixed = sim::Seconds(0.45),
      .remap_bw = GBps(22.0),
      .copy_bw = GBps(9.5),
  };
}

CheckpointModel DefaultCheckpointH100() {
  return CheckpointModel{
      .fixed = sim::Seconds(0.35),
      .d2h_bw = GBps(12.0),
  };
}

CheckpointModel DefaultCheckpointA100() {
  return CheckpointModel{
      .fixed = sim::Seconds(0.4),
      .d2h_bw = GBps(10.0),
  };
}

double VllmDefaultGpuMemoryUtilization() { return 0.9; }

namespace {

InitPhases OllamaInitPhases(const ModelSpec&, BytesPerSecond) {
  // Runner process spawn (~0.7 s) + GGUF header parse / context setup
  // (~0.7 s), before the weights move; fits the floor of Fig. 5's
  // memory-backed loading times.
  return InitPhases{.setup = sim::Seconds(1.4)};
}

InitPhases SglangInitPhases(const ModelSpec& model, BytesPerSecond) {
  // H2D + tensor placement after the read, then a lighter CUDA-graph
  // capture (decode graphs only) and scheduler warm-up; no torch.compile
  // by default. Fitted to Fig. 2's 21.7 s total for LLaMA-3.1-8B.
  const double p = model.params_billion;
  return InitPhases{
      .weight_load = sim::Seconds(0.4),
      .cuda_graphs = sim::Seconds(2.0 + 0.25 * p),
      .other = sim::Seconds(1.3 + 0.12 * p),
  };
}

InitPhases TrtllmInitPhases(const ModelSpec& model, BytesPerSecond) {
  // The engine build (kernel selection, tactic profiling, graph fusion)
  // dominates. Fitted to Fig. 2: 124 s total for LLaMA-3.1-8B with a
  // ~24 s container boot leaves ~100 s of build.
  const double p = model.params_billion;
  return InitPhases{
      .weight_load = sim::Seconds(0.5),
      .compile = sim::Seconds(35.0 + 8.2 * p),
      .other = sim::Seconds(1.2 + 0.15 * p),
  };
}

// Indexed by EngineKind.
const std::array<EngineProfile, 4>& Profiles() {
  static const SwapModels kVllmH100{DefaultCheckpointH100(),
                                    VllmRestoreH100()};
  // SGLang and TRT-LLM have no sleep mode: every page restores at plain
  // copy bandwidth, as Ollama's do.
  static const SwapModels kPlainH100{DefaultCheckpointH100(),
                                     OllamaRestoreH100()};
  static const std::array<EngineProfile, 4> rows = {{
      {
          // High-throughput serving with PagedAttention. Claims
          // gpu_memory_utilization * HBM up front, which is why Fig. 6a's
          // backends sit at 72-73 GB regardless of model size. Sleep level
          // 1 discards KV blocks and tags weight pages; wake_up()
          // re-initializes the paged-KV pool over the remapped arena.
          .kind = EngineKind::kVllm,
          .name = "vllm",
          // vllm/vllm-openai:v0.9.2: ~30 s importing torch/flash-attn and
          // spinning up the engine core before weight loading (Fig. 2).
          .boot = {.create_start = sim::Seconds(1.4),
                   .entrypoint_boot = sim::Seconds(28.5)},
          .decode_efficiency = 0.60,
          .prefill_efficiency = 0.55,
          .init_phases = &VllmInitModel,
          .weight_path = WeightPath::kReadThenCalibrated,
          .kv_utilization_cap = 1.0,
          .kv_purpose = "kv-arena",
          .sleep_mode = SleepCosts{.sleep = sim::Millis(180),
                                   .wake = sim::Millis(120)},
          // Measured on H100 only; A100 hosts reuse it.
          .h100 = kVllmH100,
          .a100 = kVllmH100,
      },
      {
          // llama.cpp runners built for fast loading on limited hardware
          // (§2.3): no torch.compile, no CUDA graphs, markedly lower
          // serving throughput. Nothing is preallocated: the weights plus
          // 1.1 GB (CUDA context, compute buffers, default KV) match Fig.
          // 6b's endpoints to within ~0.15 GB.
          .kind = EngineKind::kOllama,
          .name = "ollama",
          // ollama/ollama:v0.9.6: the Go binary is up in ~1 s.
          .boot = {.create_start = sim::Seconds(0.7),
                   .entrypoint_boot = sim::Seconds(0.9)},
          .decode_efficiency = 0.33,
          .prefill_efficiency = 0.30,
          .init_phases = &OllamaInitPhases,
          .weight_path = WeightPath::kPipelined,
          .runtime_overhead_gb = 1.1,
          .weights_purpose = "weights+ctx",
          .unload = sim::Millis(350),  // free llama.cpp contexts
          .h100 = {DefaultCheckpointH100(), OllamaRestoreH100()},
          .a100 = {DefaultCheckpointA100(), OllamaRestoreA100()},
      },
      {
          // Structured generation with RadixAttention. Its KV pool is
          // mem-fraction-static, default 0.87.
          .kind = EngineKind::kSglang,
          .name = "sglang",
          // lmsysorg/sglang:v0.4.9
          .boot = {.create_start = sim::Seconds(1.3),
                   .entrypoint_boot = sim::Seconds(12.0)},
          .decode_efficiency = 0.58,
          .prefill_efficiency = 0.52,
          .init_phases = &SglangInitPhases,
          .weight_path = WeightPath::kReadThenH2d,
          .kv_utilization_cap = 0.87,
          .kv_purpose = "kv-pool",
          .h100 = kPlainH100,
          .a100 = kPlainH100,
      },
      {
          // Lowest serving latency, longest build: TRT-LLM compiles a
          // model-and-GPU-specific engine at initialization.
          .kind = EngineKind::kTrtllm,
          .name = "trtllm",
          .alias = "tensorrt-llm",
          // nvcr.io/nvidia/tensorrt-llm:v1.0rc0
          .boot = {.create_start = sim::Seconds(1.6),
                   .entrypoint_boot = sim::Seconds(22.0)},
          .decode_efficiency = 0.66,
          .prefill_efficiency = 0.60,
          .init_phases = &TrtllmInitPhases,
          .weight_path = WeightPath::kReadThenH2d,
          .kv_utilization_cap = 1.0,
          .kv_purpose = "kv-pool",
          .h100 = kPlainH100,
          .a100 = kPlainH100,
      },
  }};
  return rows;
}

}  // namespace

Bytes EngineProfile::ResidentBytes(const ModelSpec& model) const {
  if (runtime_overhead_gb == 0.0) return model.WeightBytes();
  return GB(model.WeightBytes().AsGB() + runtime_overhead_gb);
}

const EngineProfile& ProfileFor(EngineKind kind) {
  const EngineProfile& row = Profiles()[static_cast<std::size_t>(kind)];
  SWAP_CHECK(row.kind == kind);
  return row;
}

const EngineProfile* FindEngineProfile(std::string_view name) {
  for (const EngineProfile& row : Profiles()) {
    if (name == row.name || (!row.alias.empty() && name == row.alias)) {
      return &row;
    }
  }
  return nullptr;
}

}  // namespace swapserve::model
