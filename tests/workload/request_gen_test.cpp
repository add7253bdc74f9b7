#include "workload/request_gen.h"

#include <cstdint>

#include <gtest/gtest.h>

namespace swapserve::workload {
namespace {

TEST(RequestProfileTest, CodingIsInputHeavy) {
  RequestProfile coding = RequestProfile::Coding();
  EXPECT_GT(coding.mean_prompt_tokens(), coding.mean_output_tokens() * 5);
}

TEST(RequestProfileTest, ConversationalIsOutputHeavy) {
  RequestProfile conv = RequestProfile::Conversational();
  EXPECT_GT(conv.mean_output_tokens(), conv.mean_prompt_tokens());
}

TEST(RequestProfileTest, SampleMeansTrackAnalyticMeans) {
  RequestProfile coding = RequestProfile::Coding();
  sim::Rng rng(5);
  double in_sum = 0;
  double out_sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    TokenSample s = coding.Sample(rng);
    in_sum += static_cast<double>(s.prompt_tokens);
    out_sum += static_cast<double>(s.output_tokens);
  }
  // Clipping to max_tokens biases the empirical mean slightly downward.
  EXPECT_NEAR(in_sum / n, coding.mean_prompt_tokens(),
              coding.mean_prompt_tokens() * 0.1);
  EXPECT_NEAR(out_sum / n, coding.mean_output_tokens(),
              coding.mean_output_tokens() * 0.1);
}

TEST(RequestProfileTest, SamplesWithinBounds) {
  RequestProfile p("tight", 100, 2.0, 100, 2.0, /*max_tokens=*/512);
  sim::Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    TokenSample s = p.Sample(rng);
    EXPECT_GE(s.prompt_tokens, 1);
    EXPECT_LE(s.prompt_tokens, 512);
    EXPECT_GE(s.output_tokens, 1);
    EXPECT_LE(s.output_tokens, 512);
  }
}

// A trace event holds its token counts in 32 bits: a bound past that would
// let a clipped length wrap silently, so the constructor rejects it.
TEST(RequestProfileDeathTest, MaxTokensMustFitInt32) {
  const std::int64_t past = std::int64_t{INT32_MAX} + 1;
  EXPECT_DEATH(RequestProfile("huge", 100, 0.5, 100, 0.5, past), "32 bits");
  RequestProfile widest("widest", 100, 0.5, 100, 0.5, INT32_MAX);
  sim::Rng rng(3);
  EXPECT_GE(widest.Sample(rng).prompt_tokens, 1);
}

TEST(RequestProfileTest, DeterministicPerSeed) {
  RequestProfile p = RequestProfile::ShortQa();
  sim::Rng a(21);
  sim::Rng b(21);
  for (int i = 0; i < 100; ++i) {
    TokenSample sa = p.Sample(a);
    TokenSample sb = p.Sample(b);
    EXPECT_EQ(sa.prompt_tokens, sb.prompt_tokens);
    EXPECT_EQ(sa.output_tokens, sb.output_tokens);
  }
}

TEST(RequestProfileTest, Names) {
  EXPECT_EQ(RequestProfile::Coding().name(), "coding");
  EXPECT_EQ(RequestProfile::Conversational().name(), "conversational");
  EXPECT_EQ(RequestProfile::ShortQa().name(), "short-qa");
}

}  // namespace
}  // namespace swapserve::workload
