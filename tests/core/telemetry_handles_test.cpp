// Cached instrument handles on the request path: every hot-path write goes
// through a pointer resolved on its first use, so the registry must still
// agree with the exact per-model Samples, must hold no series that nothing
// wrote (no zero-valued outcome="rejected"), and a rebind must move every
// later write to the new registry.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/swap_serve.h"
#include "fixture.h"
#include "hw/link.h"
#include "obs/observability.h"

namespace swapserve::core {
namespace {

using testing::TestBed;

const obs::MetricsRegistry::Family* FindFamily(
    const obs::MetricsRegistry& reg, std::string_view name) {
  auto it = reg.families().find(name);
  return it == reg.families().end() ? nullptr : &it->second;
}

const obs::MetricsRegistry::Instrument* FindSeries(
    const obs::MetricsRegistry& reg, std::string_view name,
    obs::Labels labels) {
  const obs::MetricsRegistry::Family* family = FindFamily(reg, name);
  if (family == nullptr) return nullptr;
  auto it = family->series.find(obs::MetricsRegistry::LabelKey(labels));
  return it == family->series.end() ? nullptr : &it->second;
}

struct ClientTally {
  int completed = 0;
  std::int64_t token_chunks = 0;
};

// One streaming client arriving at `at_s`; SSE frames other than the
// finish frame and the [DONE] terminator are token chunks.
sim::Task<> StreamOne(sim::Simulation* sim, SwapServe* serve,
                      std::string model, double at_s, ClientTally* tally) {
  co_await sim->Delay(sim::Seconds(at_s));
  std::vector<std::string> events;
  ChatResult r = co_await serve->ChatAndStream(model, /*prompt_tokens=*/128,
                                               /*max_tokens=*/64, &events);
  if (!r.ok) co_return;
  ++tally->completed;
  tally->token_chunks += static_cast<std::int64_t>(events.size()) - 2;
}

TEST(TelemetryHandlesTest, RegistryAgreesWithSamplesAndHasNoEarlySeries) {
  TestBed bed;
  Config cfg = bed.MakeConfig(
      {{"llama-3.2-1b-fp16", "ollama"}, {"deepseek-r1-7b-fp16", "ollama"}});
  cfg.global.stream_tokens = true;
  cfg.global.stream_chunk_tokens = 16;
  SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
  const std::vector<std::string> models = {"llama-3.2-1b-fp16",
                                           "deepseek-r1-7b-fp16"};
  std::vector<ClientTally> tally(models.size());
  constexpr int kRequests = 300;

  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    for (int i = 0; i < kRequests; ++i) {
      const std::size_t m = static_cast<std::size_t>(i) % models.size();
      bed.sim.Go(StreamOne(&bed.sim, &serve, models[m], 0.25 * i, &tally[m]));
    }
    co_await bed.sim.Delay(sim::Seconds(0.25 * kRequests + 600));
    serve.Shutdown();
  });

  const obs::MetricsRegistry& reg = serve.obs().metrics;
  int completed = 0;
  for (std::size_t m = 0; m < models.size(); ++m) {
    SCOPED_TRACE(models[m]);
    const ModelMetrics& mm = serve.metrics().ForModel(models[m]);
    completed += tally[m].completed;
    EXPECT_EQ(mm.completed, static_cast<std::uint64_t>(tally[m].completed));

    const auto* requests =
        FindSeries(reg, "swapserve_requests_total",
                   {{"model", models[m]}, {"outcome", "completed"}});
    ASSERT_NE(requests, nullptr);
    EXPECT_DOUBLE_EQ(requests->counter->value(),
                     static_cast<double>(mm.completed));

    const auto* ttft = FindSeries(reg, "swapserve_request_ttft_seconds",
                                  {{"model", models[m]}});
    ASSERT_NE(ttft, nullptr);
    EXPECT_EQ(ttft->histogram->count(), mm.ttft_s.count());

    const auto* chunks = FindSeries(reg, "swapserve_stream_chunks_total",
                                    {{"model", models[m]}});
    ASSERT_NE(chunks, nullptr);
    EXPECT_GT(tally[m].token_chunks, 0);
    EXPECT_DOUBLE_EQ(chunks->counter->value(),
                     static_cast<double>(tally[m].token_chunks));

    for (const char* outcome : {"rejected", "failed", "expired"}) {
      EXPECT_EQ(FindSeries(reg, "swapserve_requests_total",
                           {{"model", models[m]}, {"outcome", outcome}}),
                nullptr)
          << outcome;
    }
  }
  EXPECT_EQ(completed, kRequests);
  // Every request_total series is a completed one: nothing else was written.
  EXPECT_EQ(FindFamily(reg, "swapserve_requests_total")->series.size(),
            models.size());
}

TEST(TelemetryHandlesTest, LinkRebindMovesLaterWritesToTheNewRegistry) {
  sim::Simulation sim;
  obs::Observability first(sim);
  obs::Observability second(sim);
  hw::Link link(sim, "pcie", GBps(10));
  link.BindObservability(&first);
  sim.Go([&]() -> sim::Task<> {
    co_await link.Transfer(GB(1));
    link.BindObservability(&second);
    co_await link.Transfer(GB(3));
  });
  sim.Run();

  const obs::Labels labels = {{"link", "pcie"}};
  const auto* before =
      FindSeries(first.metrics, "swapserve_link_transferred_bytes_total",
                 labels);
  const auto* after =
      FindSeries(second.metrics, "swapserve_link_transferred_bytes_total",
                 labels);
  ASSERT_NE(before, nullptr);
  ASSERT_NE(after, nullptr);
  EXPECT_DOUBLE_EQ(before->counter->value(),
                   static_cast<double>(GB(1).count()));
  EXPECT_DOUBLE_EQ(after->counter->value(),
                   static_cast<double>(GB(3).count()));
  const auto* busy = FindSeries(second.metrics,
                                "swapserve_link_busy_seconds_total", labels);
  ASSERT_NE(busy, nullptr);
  EXPECT_NEAR(busy->counter->value(), 0.3, 1e-9);
  EXPECT_DOUBLE_EQ(
      FindSeries(first.metrics, "swapserve_link_in_flight", labels)
          ->gauge->value(),
      0.0);
}

}  // namespace
}  // namespace swapserve::core
