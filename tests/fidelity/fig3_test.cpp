// Fig. 3 fidelity: the month EXPERIMENTS.md's table reports, held to the
// bands that table states. A calibration, scheduler or workload change that
// moves a row outside its band fails here; widening a band is a change to
// this gate and must say why.

#include "bench/scenarios.h"

#include <gtest/gtest.h>

namespace swapserve::bench {
namespace {

TEST(Fig3FidelityTest, MonthStaysInsideItsBands) {
  const Fig3Month month = RunFig3Month();
  // Six MMPP models at a mean 0.00136 req/s each over 30 days: ~21.2k
  // requests, 18.8k-22.4k over seven trace seeds.
  EXPECT_GE(month.requests, 17000u);
  EXPECT_LE(month.requests, 26000u);

  // GPU-hours are fixed by construction (six GPUs against one, 30 days);
  // these two lines only pin the table's first column.
  const Fig3Run& ded = month.dedicated;
  EXPECT_EQ(ded.gpu_hours, 4320);
  EXPECT_EQ(ded.completed, month.requests);
  EXPECT_EQ(ded.swap_ins, 0u);
  EXPECT_NEAR(ded.mean_mem_gib, 57.1, 0.5);  // held 24/7
  EXPECT_GE(ded.mean_util_pct, 0.4);
  EXPECT_LE(ded.mean_util_pct, 1.0);
  EXPECT_LE(ded.p99_ttft_s, 0.1);

  const Fig3Run& swp = month.swapserve;
  EXPECT_EQ(swp.gpu_hours, 720);
  EXPECT_EQ(swp.completed, month.requests);
  EXPECT_NEAR(swp.mean_mem_gib, 57.0, 0.5);
  EXPECT_GE(swp.mean_util_pct, 3.0);  // ~4 %
  EXPECT_LE(swp.mean_util_pct, 5.0);
  EXPECT_LE(swp.p99_ttft_s, 0.1);
  EXPECT_GE(swp.swap_ins, 1u);  // single digits
  EXPECT_LE(swp.swap_ins, 9u);
}

}  // namespace
}  // namespace swapserve::bench
