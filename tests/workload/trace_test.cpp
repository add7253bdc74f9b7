#include "workload/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace swapserve::workload {
namespace {

// The reference algorithm GenerateTrace must reproduce bit for bit:
// thinning that asks RateAt for every candidate, each model appended in
// mix order, then one stable sort by time.
std::vector<TraceEvent> ReferenceTrace(const std::vector<ModelWorkload>& mix,
                                       double horizon_s, std::uint64_t seed) {
  sim::Rng root(seed);
  std::vector<TraceEvent> trace;
  for (const ModelWorkload& w : mix) {
    sim::Rng arrivals_rng = root.Fork();
    sim::Rng lengths_rng = root.Fork();
    const double max_rate = w.rate->MaxRate();
    if (max_rate == 0) continue;
    double t = 0;
    while (true) {
      t += arrivals_rng.Exponential(max_rate);
      if (t >= horizon_s) break;
      if (arrivals_rng.NextDouble() * max_rate >= w.rate->RateAt(t)) {
        continue;
      }
      const TokenSample tokens = w.profile->Sample(lengths_rng);
      trace.push_back(TraceEvent{.time_s = t,
                                 .model_id = ModelName(w.model_id),
                                 .prompt_tokens = tokens.prompt_tokens,
                                 .output_tokens = tokens.output_tokens});
    }
  }
  std::stable_sort(trace.begin(), trace.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.time_s < b.time_s;
                   });
  return trace;
}

void ExpectSameTrace(const std::vector<TraceEvent>& want,
                     const std::vector<TraceEvent>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(want[i].time_s),
              std::bit_cast<std::uint64_t>(got[i].time_s))
        << "event " << i;
    ASSERT_EQ(want[i].model_id, got[i].model_id) << "event " << i;
    ASSERT_EQ(want[i].prompt_tokens, got[i].prompt_tokens) << "event " << i;
    ASSERT_EQ(want[i].output_tokens, got[i].output_tokens) << "event " << i;
  }
}

const RequestProfile kProfile = RequestProfile::Conversational();

// Rate curves owned by a test, with the mix that borrows them.
struct Mix {
  std::vector<std::unique_ptr<RateCurve>> rates;
  std::vector<ModelWorkload> models;

  void Add(std::unique_ptr<RateCurve> rate) {
    rates.push_back(std::move(rate));
    models.push_back({"model-" + std::to_string(models.size()),
                      rates.back().get(), &kProfile});
  }
};

// The six-model sparse-burst shape of Fig. 3, plus a Poisson and a
// diurnal model, with MMPP switch times drawn from `seed`.
Mix MixedCurves(std::uint64_t seed, double mmpp_horizon_s) {
  Mix mix;
  for (int m = 0; m < 6; ++m) {
    mix.Add(std::make_unique<MmppRate>(0.0005, 0.02 + 0.005 * m, 18000, 1200,
                                       seed * 131 + m, mmpp_horizon_s));
  }
  mix.Add(std::make_unique<ConstantRate>(0.002));
  mix.Add(std::make_unique<DiurnalRate>(DiurnalRate::CodingPreset(0.004)));
  return mix;
}

TEST(TraceOracleTest, MatchesReferenceOnMixedCurves) {
  const double horizon = 14 * 86400.0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    Mix mix = MixedCurves(seed, horizon);
    const auto trace = GenerateTrace(mix.models, horizon, seed);
    ASSERT_GT(trace.size(), 500u);
    ExpectSameTrace(ReferenceTrace(mix.models, horizon, seed), trace);
  }
}

TEST(TraceOracleTest, MatchesReferenceWhenHorizonEndsInsideABurst) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE(seed);
    Mix mix = MixedCurves(seed, 14 * 86400.0);
    // The middle of model 0's third burst.
    const auto& first = static_cast<const MmppRate&>(*mix.rates[0]);
    double t = 0;
    for (int k = 0; k < 5; ++k) t = first.PieceAt(t).end;
    const double burst_end = first.PieceAt(t).end;
    ASSERT_TRUE(first.InBurst(t));
    const double horizon = (t + burst_end) / 2;
    ExpectSameTrace(ReferenceTrace(mix.models, horizon, seed),
                    GenerateTrace(mix.models, horizon, seed));
  }
}

TEST(TraceOracleTest, MatchesReferenceWhenHorizonEndsOnASwitch) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE(seed);
    // Find model 0's fourth switch, then rebuild the mix with that switch
    // as the horizon: the MMPP's last switch time is the horizon itself.
    const Mix probe = MixedCurves(seed, 14 * 86400.0);
    const auto& first = static_cast<const MmppRate&>(*probe.rates[0]);
    double horizon = 0;
    for (int k = 0; k < 4; ++k) horizon = first.PieceAt(horizon).end;
    Mix mix = MixedCurves(seed, horizon);
    const auto& rebuilt = static_cast<const MmppRate&>(*mix.rates[0]);
    ASSERT_EQ(rebuilt.PieceAt(std::nextafter(horizon, 0.0)).end, horizon);
    ExpectSameTrace(ReferenceTrace(mix.models, horizon, seed),
                    GenerateTrace(mix.models, horizon, seed));
  }
}

TEST(TraceOracleTest, MatchesReferenceWithAZeroTrafficModel) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE(seed);
    Mix mix;
    mix.Add(std::make_unique<ConstantRate>(0.05));
    mix.Add(std::make_unique<ConstantRate>(0.0));
    mix.Add(std::make_unique<DiurnalRate>(
        DiurnalRate::ConversationalPreset(0.03)));
    const auto trace = GenerateTrace(mix.models, 86400, seed);
    ExpectSameTrace(ReferenceTrace(mix.models, 86400, seed), trace);
    for (const TraceEvent& ev : trace) EXPECT_NE(ev.model_id, "model-1");
  }
}

TEST(TraceTest, GeneratesSortedMergedTrace) {
  ConstantRate fast(1.0);
  ConstantRate slow(0.2);
  RequestProfile profile = RequestProfile::ShortQa();
  std::vector<ModelWorkload> mix = {
      {"model-a", &fast, &profile},
      {"model-b", &slow, &profile},
  };
  auto trace = GenerateTrace(mix, 3600, 42);
  ASSERT_FALSE(trace.empty());
  int a_count = 0;
  int b_count = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(trace[i].time_s, trace[i - 1].time_s);
    }
    EXPECT_GT(trace[i].prompt_tokens, 0);
    EXPECT_GT(trace[i].output_tokens, 0);
    if (trace[i].model_id == "model-a") ++a_count;
    if (trace[i].model_id == "model-b") ++b_count;
  }
  EXPECT_EQ(a_count + b_count, static_cast<int>(trace.size()));
  // Rate ratio ~5:1.
  EXPECT_NEAR(static_cast<double>(a_count) / b_count, 5.0, 1.5);
}

TEST(TraceTest, DeterministicPerSeed) {
  ConstantRate rate(0.5);
  RequestProfile profile = RequestProfile::ShortQa();
  std::vector<ModelWorkload> mix = {{"m", &rate, &profile}};
  auto t1 = GenerateTrace(mix, 1000, 7);
  auto t2 = GenerateTrace(mix, 1000, 7);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_DOUBLE_EQ(t1[i].time_s, t2[i].time_s);
    EXPECT_EQ(t1[i].prompt_tokens, t2[i].prompt_tokens);
  }
  auto t3 = GenerateTrace(mix, 1000, 8);
  EXPECT_NE(t1.size(), t3.size());
}

TEST(HourlyTokenVolumeTest, BucketsSumToTraceTotals) {
  ConstantRate rate(0.5);
  RequestProfile profile = RequestProfile::Conversational();
  std::vector<ModelWorkload> mix = {{"m", &rate, &profile}};
  auto trace = GenerateTrace(mix, 7200, 3);
  auto buckets = HourlyTokenVolume(trace, 7200);
  ASSERT_EQ(buckets.size(), 2u);
  std::int64_t total_in = 0;
  std::int64_t total_req = 0;
  for (const HourBucket& b : buckets) {
    total_in += b.input_tokens;
    total_req += b.requests;
  }
  std::int64_t expected_in = 0;
  for (const TraceEvent& ev : trace) expected_in += ev.prompt_tokens;
  EXPECT_EQ(total_in, expected_in);
  EXPECT_EQ(total_req, static_cast<std::int64_t>(trace.size()));
  EXPECT_DOUBLE_EQ(buckets[1].hour_start_s, 3600.0);
}

TEST(HourlyTokenVolumeTest, EmptyTrace) {
  auto buckets = HourlyTokenVolume({}, 3600);
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_EQ(buckets[0].requests, 0);
}

TEST(HourlyTokenVolumeTest, EventsPastHorizonIgnored) {
  std::vector<TraceEvent> trace = {
      {.time_s = 100,
       .model_id = ModelName("m"),
       .prompt_tokens = 5,
       .output_tokens = 5},
      {.time_s = 7000,
       .model_id = ModelName("m"),
       .prompt_tokens = 7,
       .output_tokens = 7},
  };
  auto buckets = HourlyTokenVolume(trace, 3600);
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_EQ(buckets[0].input_tokens, 5);
}

// A name too long for std::string's inline buffer, as every model id is.
constexpr std::string_view kLongName = "llama-3.1-8b-instruct-fp16";

TEST(ModelNameTest, EqualNamesFromTwoTracesShareOneEntry) {
  ConstantRate rate(0.5);
  const RequestProfile profile = RequestProfile::ShortQa();
  // Two mixes with their own copies of the name.
  const std::vector<ModelWorkload> mix_a = {
      {std::string(kLongName), &rate, &profile}};
  const std::vector<ModelWorkload> mix_b = {
      {std::string(kLongName), &rate, &profile}};
  ASSERT_NE(mix_a[0].model_id.data(), mix_b[0].model_id.data());
  const auto a = GenerateTrace(mix_a, 600, 1);
  const auto b = GenerateTrace(mix_b, 600, 2);
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  for (const TraceEvent& ev : a) {
    EXPECT_EQ(&ev.model_id.str(), &a[0].model_id.str());
  }
  EXPECT_EQ(&a[0].model_id.str(), &b[0].model_id.str());
  EXPECT_EQ(a[0].model_id, b[0].model_id);
  EXPECT_EQ(&ModelName(kLongName).str(), &a[0].model_id.str());
  EXPECT_NE(ModelName("model-x"), ModelName("model-y"));
}

TEST(ModelNameTest, ComparesAndConvertsAsItsName) {
  const ModelName name(kLongName);
  const std::string text(kLongName);
  // Equality with another handle, a view, a C string and a std::string,
  // either side.
  EXPECT_TRUE(name == ModelName(text));
  EXPECT_TRUE(name == kLongName);
  EXPECT_TRUE(kLongName == name);
  EXPECT_TRUE(name == "llama-3.1-8b-instruct-fp16");
  EXPECT_TRUE("llama-3.1-8b-instruct-fp16" == name);
  EXPECT_TRUE(name == text);
  EXPECT_TRUE(name != "llama-3.1-8b-instruct-fp1");
  EXPECT_TRUE(name != std::string_view("x"));
  EXPECT_FALSE(name != ModelName(text));

  const std::string& as_ref = name;
  EXPECT_EQ(&as_ref, &name.str());
  const std::string_view as_view = name;
  EXPECT_EQ(as_view.data(), name.str().data());
  std::ostringstream printed;
  printed << name;
  EXPECT_EQ(printed.str(), text);

  // The three forms a trace's reader uses: a string-keyed map lookup, a
  // call taking a borrowed name, and a view assigned from the event.
  const TraceEvent ev{.time_s = 1, .model_id = name};
  std::map<std::string, std::size_t> pool_of = {{text, 3}};
  EXPECT_EQ(pool_of[ev.model_id], 3u);
  EXPECT_EQ(pool_of.size(), 1u);
  const auto length = [](std::string_view model) { return model.size(); };
  EXPECT_EQ(length(ev.model_id), kLongName.size());
  std::string_view borrowed;
  borrowed = ev.model_id;
  EXPECT_EQ(borrowed, kLongName);
  EXPECT_EQ(borrowed.data(), name.str().data());
}

TEST(ModelNameTest, TraceOutlivesItsMixAndItsNames) {
  // bench_e2e's pattern: the mix, with its name strings, and its rate
  // curves are gone before the trace is read.
  std::vector<TraceEvent> trace;
  {
    auto fast = std::make_unique<ConstantRate>(0.5);
    auto slow = std::make_unique<ConstantRate>(0.1);
    std::vector<ModelWorkload> mix = {
        {std::string(kLongName) + "-a", fast.get(), &kProfile},
        {std::string(kLongName) + "-b", slow.get(), &kProfile}};
    trace = GenerateTrace(mix, 3600, 5);
  }
  ASSERT_FALSE(trace.empty());
  int a = 0;
  int b = 0;
  for (const TraceEvent& ev : trace) {
    const std::string_view name = ev.model_id;
    ASSERT_EQ(name.substr(0, kLongName.size()), kLongName);
    if (name.ends_with("-a")) ++a;
    if (name.ends_with("-b")) ++b;
  }
  EXPECT_EQ(a + b, static_cast<int>(trace.size()));
  EXPECT_GT(a, b);
}

}  // namespace
}  // namespace swapserve::workload
