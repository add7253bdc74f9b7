// Cached instrument handles on the request, swap, snapshot-store,
// placement and repair paths: every hot-path write goes through a pointer
// resolved on its first use, so once a run has warmed up the registry
// serves no more by-name lookups. The registry must still agree with the
// exact per-model Samples and swap counters, must hold no series that
// nothing wrote (no zero-valued outcome="rejected", no swap-in latency for
// a model that never swapped in), and a rebind must move every later write
// to the new registry.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
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

// Sum of a family's counters (or histogram counts) over the series whose
// `direction` label is `direction`.
double SumByDirection(const obs::MetricsRegistry& reg, std::string_view name,
                      std::string_view direction) {
  const obs::MetricsRegistry::Family* family = FindFamily(reg, name);
  if (family == nullptr) return 0;
  double total = 0;
  for (const auto& [key, series] : family->series) {
    bool match = false;
    for (const auto& [k, v] : series.labels) {
      if (k == "direction" && v == direction) match = true;
    }
    if (!match) continue;
    total += series.counter != nullptr
                 ? series.counter->value()
                 : static_cast<double>(series.histogram->count());
  }
  return total;
}

// The registry's swap series agree with core::Metrics' exact counters.
void ExpectSwapTotalsMatch(const obs::MetricsRegistry& reg,
                           const Metrics& metrics) {
  EXPECT_DOUBLE_EQ(SumByDirection(reg, "swapserve_swaps_total", "in"),
                   static_cast<double>(metrics.swap_ins));
  EXPECT_DOUBLE_EQ(SumByDirection(reg, "swapserve_swaps_total", "out"),
                   static_cast<double>(metrics.swap_outs));
  EXPECT_DOUBLE_EQ(
      SumByDirection(reg, "swapserve_swap_latency_seconds", "in"),
      static_cast<double>(metrics.swap_in_latency_s.count()));
}

// One client: waits until `at_s`, then sends one request through `send`.
sim::Task<> SendAt(sim::Simulation* sim, double at_s,
                   std::function<sim::Task<ChatResult>()> send, int* ok) {
  co_await sim->Delay(sim::Seconds(at_s));
  ChatResult r = co_await send();
  if (r.ok) ++*ok;
}

// Three vLLM models that cannot share the one GPU, so nearly every request
// swaps, behind a host cache too small for all three snapshots (tier
// demotions, promotions and prefetches). A fourth model is configured but
// never requested.
TEST(TelemetryHandlesTest, SwapHeavyNodeStopsLookingUpAfterWarmUp) {
  TestBed bed;
  const std::vector<std::string> models = {
      "llama-3.2-1b-fp16", "llama-3.2-3b-fp16", "deepseek-r1-7b-fp16"};
  const std::string idle = "gemma-7b-fp16";
  Config cfg = bed.MakeConfig({{models[0], "vllm"},
                               {models[1], "vllm"},
                               {models[2], "vllm"},
                               {idle, "vllm"}});
  cfg.global.host_cache_mib = 24 * 1024;
  cfg.global.snapshot_prefetch = true;
  SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
  const obs::MetricsRegistry& reg = serve.obs().metrics;
  constexpr int kRequests = 240;
  constexpr double kGapS = 30;
  int ok = 0;
  std::uint64_t warm = 0;

  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    for (int i = 0; i < kRequests; ++i) {
      const std::string& model = models[static_cast<std::size_t>(i) % 3];
      bed.sim.Go(SendAt(&bed.sim, kGapS * i,
                        [&serve, model]() -> sim::Task<ChatResult> {
                          co_return co_await serve.ChatAndWait(model, 128, 32);
                        },
                        &ok));
    }
    co_await bed.sim.Delay(sim::Seconds(kGapS * kRequests / 2));
    warm = reg.lookups();
    co_await bed.sim.Delay(sim::Seconds(kGapS * kRequests / 2 + 600));
    serve.Shutdown();
  });

  EXPECT_EQ(ok, kRequests);
  const Metrics& metrics = serve.metrics();
  ASSERT_GT(metrics.swap_ins, static_cast<std::uint64_t>(kRequests / 2));
  ASSERT_NE(serve.tier_manager(), nullptr);
  EXPECT_GT(serve.tier_manager()->demotions(), 0u);
  EXPECT_GT(warm, 0u);
  EXPECT_EQ(reg.lookups(), warm)
      << "by-name registry lookups after warm-up";
  ExpectSwapTotalsMatch(reg, metrics);
  EXPECT_EQ(FindSeries(reg, "swapserve_swap_latency_seconds",
                       {{"direction", "in"}, {"model", idle}}),
            nullptr)
      << idle << " never swapped in";
}

// Three nodes, two copies of each model, a heartbeat and one scheduled
// node crash inside the warm-up: routing, fetches, repair and per-node
// swaps keep going after it, and none of them looks a series up by name.
TEST(TelemetryHandlesTest, FleetStopsLookingUpAfterWarmUp) {
  TestBed bed;
  Config cfg;
  const std::vector<std::string> models = {
      "llama-3.2-1b-fp16", "llama-3.2-3b-fp16", "deepseek-r1-7b-fp16",
      "deepseek-coder-6.7b-fp16", "gemma-7b-fp16", "deepseek-r1-14b-fp16"};
  for (std::size_t i = 0; i < models.size(); ++i) {
    ModelEntry m;
    m.model_id = models[i];
    m.engine = "vllm";
    m.node = static_cast<int>(i % 3);
    cfg.models.push_back(std::move(m));
  }
  cfg.cluster.nodes = 3;
  cfg.cluster.replicate = 2;
  cfg.cluster.heartbeat_interval_s = 0.5;
  cfg.cluster.suspect_after_s = 1.0;
  cfg.cluster.down_after_s = 3.0;
  cfg.cluster.repair_interval_s = 1.0;
  fault::FaultRule crash;
  crash.point = "node.crash";
  crash.owner = "node1";
  crash.arm_after_s = 1800;
  crash.max_fires = 1;
  crash.stall_s = 60;
  crash.code = StatusCode::kUnavailable;
  cfg.fault.plan.rules.push_back(crash);
  ASSERT_TRUE(cfg.Validate(bed.catalog, 1).ok());
  cluster::ClusterServe fleet(bed.sim, cfg, bed.catalog);
  const auto lookups = [&fleet] {
    std::uint64_t total = 0;
    for (int n = 0; n < fleet.nodes(); ++n) {
      total += fleet.node(n).serve().obs().metrics.lookups();
    }
    return total;
  };
  constexpr int kRequests = 600;
  constexpr double kGapS = 12;
  int ok = 0;
  std::uint64_t warm = 0;

  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await fleet.Initialize()).ok());
    for (int i = 0; i < kRequests; ++i) {
      const std::string& model = models[static_cast<std::size_t>(i * 7) %
                                        models.size()];
      bed.sim.Go(SendAt(&bed.sim, kGapS * i,
                        [&fleet, model]() -> sim::Task<ChatResult> {
                          co_return co_await fleet.ChatAndWait(model, 128, 32);
                        },
                        &ok));
    }
    co_await bed.sim.Delay(sim::Seconds(kGapS * kRequests / 2));
    warm = lookups();
    co_await bed.sim.Delay(sim::Seconds(kGapS * kRequests / 2 + 600));
    fleet.Shutdown();
  });

  EXPECT_EQ(fleet.failovers(), 1u);
  EXPECT_GT(fleet.routed(), 0u);
  EXPECT_GT(fleet.replicator()->fetches(), 0u);
  EXPECT_GT(ok, kRequests / 2);
  EXPECT_GT(warm, 0u);
  EXPECT_EQ(lookups(), warm) << "by-name registry lookups after warm-up";
  for (int n = 0; n < fleet.nodes(); ++n) {
    SCOPED_TRACE("node" + std::to_string(n));
    ExpectSwapTotalsMatch(fleet.node(n).serve().obs().metrics,
                          fleet.node(n).serve().metrics());
  }
}

// The model worker records every request outcome through a handle it
// resolved on its first write. A Metrics rebind mid-run must move the
// handle's later writes to the new registry, and a model that never
// finishes a request must have neither a per_model() entry nor a request
// series in either registry.
TEST(TelemetryHandlesTest, RebindMovesLaterCompletionsAndIdleModelStaysEmpty) {
  TestBed bed;
  const std::string served = "llama-3.2-1b-fp16";
  const std::string idle = "deepseek-r1-7b-fp16";
  SwapServe serve(bed.sim,
                  bed.MakeConfig({{served, "ollama"}, {idle, "ollama"}}),
                  bed.catalog, bed.hardware());
  obs::Observability second(bed.sim);
  constexpr int kBefore = 30;
  constexpr int kAfter = 20;
  int ok = 0;

  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    for (int i = 0; i < kBefore + kAfter; ++i) {
      if (i == kBefore) serve.metrics().BindObservability(&second);
      ChatResult r = co_await serve.ChatAndWait(served, 128, 32);
      if (r.ok) ++ok;
    }
    serve.Shutdown();
  });

  ASSERT_EQ(ok, kBefore + kAfter);
  const obs::MetricsRegistry& first = serve.obs().metrics;
  const obs::MetricsRegistry& after = second.metrics;
  const obs::Labels completed = {{"model", served}, {"outcome", "completed"}};
  const obs::Labels labels = {{"model", served}};
  const auto* requests_before =
      FindSeries(first, "swapserve_requests_total", completed);
  const auto* requests_after =
      FindSeries(after, "swapserve_requests_total", completed);
  ASSERT_NE(requests_before, nullptr);
  ASSERT_NE(requests_after, nullptr);
  EXPECT_DOUBLE_EQ(requests_before->counter->value(), kBefore);
  EXPECT_DOUBLE_EQ(requests_after->counter->value(), kAfter);
  const auto* ttft_after =
      FindSeries(after, "swapserve_request_ttft_seconds", labels);
  ASSERT_NE(ttft_after, nullptr);
  EXPECT_EQ(ttft_after->histogram->count(),
            static_cast<std::uint64_t>(kAfter));
  EXPECT_EQ(serve.metrics().per_model().at(served).completed,
            static_cast<std::uint64_t>(kBefore + kAfter));

  EXPECT_EQ(serve.metrics().per_model().count(idle), 0u);
  for (const obs::MetricsRegistry* reg : {&first, &after}) {
    for (const char* family :
         {"swapserve_requests_total", "swapserve_request_ttft_seconds",
          "swapserve_request_latency_seconds", "swapserve_swap_wait_seconds",
          "swapserve_output_tokens_total"}) {
      const obs::MetricsRegistry::Family* f = FindFamily(*reg, family);
      if (f == nullptr) continue;
      for (const auto& [key, series] : f->series) {
        for (const auto& [k, v] : series.labels) {
          EXPECT_FALSE(k == "model" && v == idle) << family;
        }
      }
    }
  }
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
