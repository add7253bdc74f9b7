#include "model/calibration.h"

#include <gtest/gtest.h>

#include "model/catalog.h"

namespace swapserve::model {
namespace {

class CalibrationTest : public ::testing::Test {
 protected:
  ModelCatalog catalog = ModelCatalog::Default();
  BytesPerSecond h100_disk = GBps(6);
};

TEST_F(CalibrationTest, Table1ModelsAreCalibrated) {
  for (const char* id :
       {"deepseek-r1-14b-fp16", "gemma-3-27b-fp16", "llama-3.2-1b-fp16"}) {
    EXPECT_TRUE(HasVllmCalibration(catalog.Find(id).value())) << id;
  }
  EXPECT_FALSE(HasVllmCalibration(catalog.Find("gemma-7b-fp16").value()));
  EXPECT_FALSE(
      HasVllmCalibration(catalog.Find("deepseek-r1-14b-q4").value()));
}

TEST_F(CalibrationTest, CalibratedPhasesMatchPaperTable) {
  InitPhases p =
      VllmInitModel(catalog.Find("deepseek-r1-14b-fp16").value(), h100_disk);
  EXPECT_DOUBLE_EQ(p.compile.ToSeconds(), 43.18);
  EXPECT_DOUBLE_EQ(p.cuda_graphs.ToSeconds(), 21.00);
  // Load formula ~ 0.4 + 29.5GB/6GBps ~ 5.3 s (paper: 5.17).
  EXPECT_NEAR(p.weight_load.ToSeconds(), 5.17, 0.3);
}

TEST_F(CalibrationTest, CalibratedTotalsNearPaper) {
  struct Expect {
    const char* id;
    double total;
  };
  for (const Expect& e : {Expect{"deepseek-r1-14b-fp16", 82.39},
                          Expect{"gemma-3-27b-fp16", 160.30},
                          Expect{"llama-3.2-1b-fp16", 34.14}}) {
    InitPhases p = VllmInitModel(catalog.Find(e.id).value(), h100_disk);
    EXPECT_NEAR(p.Total().ToSeconds(), e.total, 1.0) << e.id;
  }
}

TEST_F(CalibrationTest, FallbackFormulaMonotoneInSize) {
  InitPhases small =
      VllmInitModel(catalog.Find("deepseek-coder-6.7b-fp16").value(),
                    h100_disk);
  InitPhases big =
      VllmInitModel(catalog.Find("llama-3.3-70b-fp8").value(), h100_disk);
  EXPECT_LT(small.compile, big.compile);
  EXPECT_LT(small.cuda_graphs, big.cuda_graphs);
  EXPECT_LT(small.Total(), big.Total());
}

TEST_F(CalibrationTest, VllmRestoreReproducesFig6aEndpoints) {
  RestoreModel restore = VllmRestoreH100();
  // 1B: ~72.5 GB clean-ish arena, 2.5 GB dirty weights -> ~5.5 s.
  const double t1b =
      restore.RestoreTime(GB(70), GB(2.5)).ToSeconds();
  EXPECT_NEAR(t1b, 5.5, 0.3);
  // 14B: ~43 GB arena, 29.5 GB weights -> ~7.5 s.
  const double t14b =
      restore.RestoreTime(GB(43), GB(29.5)).ToSeconds();
  EXPECT_NEAR(t14b, 7.5, 0.4);
}

TEST_F(CalibrationTest, OllamaRestoreReproducesFig6bEndpoints) {
  RestoreModel restore = OllamaRestoreH100();
  EXPECT_NEAR(restore.RestoreTime(Bytes(0), GB(3.6)).ToSeconds(), 0.75,
              0.05);
  EXPECT_NEAR(restore.RestoreTime(Bytes(0), GB(30.5)).ToSeconds(), 4.6,
              0.1);
}

TEST_F(CalibrationTest, OllamaResidentMatchesFig6bMemory) {
  const EngineProfile& ollama = ProfileFor(EngineKind::kOllama);
  EXPECT_NEAR(
      ollama.ResidentBytes(catalog.Find("llama-3.2-1b-fp16").value()).AsGB(),
      3.6, 0.5);
  EXPECT_NEAR(
      ollama.ResidentBytes(catalog.Find("deepseek-r1-14b-fp16").value())
          .AsGB(),
      30.5, 0.8);
}

TEST_F(CalibrationTest, CheckpointModelsHaveSaneBandwidth) {
  EXPECT_GT(DefaultCheckpointH100().d2h_bw.AsGBps(), 5);
  EXPECT_LT(DefaultCheckpointH100().d2h_bw.AsGBps(), 64);
  EXPECT_GT(DefaultCheckpointA100().d2h_bw.AsGBps(), 5);
  EXPECT_LE(DefaultCheckpointA100().d2h_bw.AsGBps(),
            DefaultCheckpointH100().d2h_bw.AsGBps());
}

constexpr EngineKind kAllKinds[] = {EngineKind::kVllm, EngineKind::kOllama,
                                    EngineKind::kSglang, EngineKind::kTrtllm};

TEST_F(CalibrationTest, EngineEfficienciesOrdered) {
  // Red Hat's benchmarking (cited by the paper): llama.cpp kernels reach a
  // much smaller fraction of peak than vLLM/TRT.
  const EngineProfile& vllm = ProfileFor(EngineKind::kVllm);
  const EngineProfile& ollama = ProfileFor(EngineKind::kOllama);
  const EngineProfile& trtllm = ProfileFor(EngineKind::kTrtllm);
  EXPECT_LT(ollama.decode_efficiency, vllm.decode_efficiency);
  EXPECT_LE(vllm.decode_efficiency, trtllm.decode_efficiency);
  EXPECT_GT(vllm.prefill_efficiency, ollama.prefill_efficiency);
  for (EngineKind kind : kAllKinds) {
    const EngineProfile& row = ProfileFor(kind);
    EXPECT_GT(row.decode_efficiency, 0.0) << row.name;
    EXPECT_LE(row.decode_efficiency, 1.0) << row.name;
  }
}

TEST_F(CalibrationTest, EngineProfilesFoundByNameAndAlias) {
  for (EngineKind kind : kAllKinds) {
    const EngineProfile& row = ProfileFor(kind);
    EXPECT_EQ(row.kind, kind);
    EXPECT_EQ(FindEngineProfile(row.name), &row);
  }
  EXPECT_EQ(FindEngineProfile("tensorrt-llm"),
            &ProfileFor(EngineKind::kTrtllm));
  EXPECT_EQ(FindEngineProfile("llamafile"), nullptr);
  EXPECT_EQ(FindEngineProfile(""), nullptr);
}

TEST_F(CalibrationTest, DefaultGpuMemoryUtilization) {
  EXPECT_DOUBLE_EQ(VllmDefaultGpuMemoryUtilization(), 0.9);
}

}  // namespace
}  // namespace swapserve::model
