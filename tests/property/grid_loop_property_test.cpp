// Parked loops against their polling form: the replication repairer and
// the idle reaper run each seeded scenario twice, once parking on
// sim::GridLoop and once with the loop stopped and a polling loop kept
// here calling the same ScanOnce() every interval. Each action log must be
// bit-identical: (instant, model, node) per repair launch and (instant,
// backend) per reap.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "../core/fixture.h"
#include "cluster/cluster.h"
#include "core/idle_reaper.h"
#include "core/swap_serve.h"
#include "fault/fault_injector.h"
#include "model/catalog.h"
#include "sim/random.h"
#include "sim/simulation.h"

namespace swapserve {
namespace {

constexpr int kSeeds = 40;

// The parent-form loop: sleep an interval, scan, repeat, until `*on` drops.
template <typename Scan>
sim::Task<> PollEvery(sim::Simulation& sim, sim::SimDuration interval,
                      const bool* on, Scan scan) {
  while (*on) {
    co_await sim.Delay(interval);
    if (!*on) break;
    co_await scan();
  }
}

// --- repairer ---------------------------------------------------------

constexpr const char* kFleetPool[] = {
    "llama-3.2-1b-fp16",
    "llama-3.2-3b-fp16",
    "deepseek-r1-7b-fp16",
    "deepseek-coder-6.7b-fp16",
};

// Whole-node faults at scheduled instants (p = 1, one fire each), so the
// heartbeat — and with it the repairer — parks between them; some seeds
// add a per-beat crash lottery that keeps the heartbeat beating.
fault::FaultPlan FleetChaos(sim::Rng& rng, int nodes, double start_s,
                            double window_s) {
  fault::FaultPlan plan;
  const int crashes = static_cast<int>(rng.UniformInt(2, 5));
  for (int i = 0; i < crashes; ++i) {
    fault::FaultRule rule;
    rule.point = "node.crash";
    rule.owner = "node" + std::to_string(rng.UniformInt(0, nodes - 1));
    rule.arm_after_s = start_s + rng.Uniform(0.0, window_s);
    rule.max_fires = 1;
    rule.stall_s = rng.Uniform(2.0, 12.0);  // outage before the reboot
    rule.code = StatusCode::kUnavailable;
    plan.rules.push_back(std::move(rule));
  }
  if (rng.Bernoulli(0.3)) {
    fault::FaultRule rule;
    rule.point = "node.crash";
    rule.probability = rng.Uniform(0.002, 0.02);
    rule.stall_s = rng.Uniform(2.0, 12.0);
    rule.code = StatusCode::kUnavailable;
    plan.rules.push_back(std::move(rule));
  }
  return plan;
}

// One repair fetch a scan launched.
struct Launch {
  std::int64_t at_ns;
  std::string model;
  int node;
  bool operator==(const Launch&) const = default;
};

std::vector<Launch> RunFleet(std::uint64_t seed, bool polling) {
  sim::Simulation sim;
  model::ModelCatalog catalog = model::ModelCatalog::Default();
  sim::Rng rng(seed);

  core::Config cfg;
  // Four nodes, one model homed on each, two copies apiece: a crash
  // leaves real deficits for the scan to fill.
  cfg.cluster.nodes = 4;
  cfg.cluster.replicate = 2;
  cfg.cluster.heartbeat_interval_s = 0.5;
  cfg.cluster.suspect_after_s = 1.0;
  cfg.cluster.down_after_s = 3.0;
  cfg.cluster.node_restart_s = 4.0;
  const double kIntervals[] = {1.0, 2.0, 5.0};
  cfg.cluster.repair_interval_s = kIntervals[rng.UniformInt(0, 2)];
  cfg.cluster.repair_concurrency = 2;
  // A bounded host tier: payloads demote to NVMe and survive crashes.
  cfg.global.host_cache_mib = 40 * 1024;
  cfg.global.queue_capacity = 64;
  cfg.fault.seed = seed;
  for (int i = 0; i < 4; ++i) {
    core::ModelEntry m;
    m.model_id = kFleetPool[i];
    m.engine = "vllm";
    m.node = i;
    cfg.models.push_back(std::move(m));
  }
  cluster::ClusterServe fleet(sim, cfg, catalog);
  cluster::ReplicationRepairer& repairer = *fleet.repairer();
  const sim::SimDuration interval =
      sim::Seconds(cfg.cluster.repair_interval_s);
  bool poll_on = polling;
  std::vector<Launch> launches;
  repairer.SetLaunchHook([&](const std::string& model, int node) {
    launches.push_back({sim.Now().ns(), model, node});
  });

  sim::Spawn([&]() -> sim::Task<> {
    SWAP_CHECK((co_await fleet.Initialize()).ok());
    const sim::SimTime started = sim.Now();
    if (polling) {
      repairer.Stop();
      sim.Go(PollEvery(sim, interval, &poll_on, [&]() -> sim::Task<> {
        (void)repairer.ScanOnce();
        co_return;
      }));
    }
    const fault::FaultPlan plan =
        FleetChaos(rng, fleet.nodes(), sim.Now().ToSeconds(), 240.0);
    for (int i = 0; i < fleet.nodes(); ++i) {
      fleet.node(i).serve().fault_injector().Configure(plan);
    }
    const int requests = static_cast<int>(rng.UniformInt(10, 60));
    const double gap_s = rng.Uniform(1.0, 10.0);
    for (int i = 0; i < requests; ++i) {
      co_await sim.Delay(sim::Seconds(rng.Exponential(1.0 / gap_s)));
      core::InferenceRequest req;
      req.model = kFleetPool[rng.UniformInt(0, 3)];
      req.prompt_tokens = rng.UniformInt(8, 256);
      req.max_tokens = rng.UniformInt(16, 128);
      Result<core::ResponseChannelPtr> ch = fleet.Accept(std::move(req));
      if (!ch.ok()) continue;
      sim::Spawn([channel = *ch]() -> sim::Task<> {
        while (co_await channel->Recv()) {
        }
      });
    }
    co_await sim.WaitUntil(started + sim::Seconds(300));
    for (int i = 0; i < fleet.nodes(); ++i) {
      fleet.node(i).serve().fault_injector().Configure(fault::FaultPlan{});
    }
    co_await sim.Delay(sim::Minutes(10));
    poll_on = false;
    fleet.Shutdown();
  });
  sim.Run();
  return launches;
}

TEST(RepairerPollingPropertyTest, ParkedScanLaunchesExactlyLikePolling) {
  std::size_t launches = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::vector<Launch> parked = RunFleet(seed, /*polling=*/false);
    const std::vector<Launch> polled = RunFleet(seed, /*polling=*/true);
    EXPECT_EQ(parked, polled) << "seed " << seed;
    launches += parked.size();
  }
  // The sweep exercises repair, not just idle fleets.
  EXPECT_GT(launches, 0u);
}

// --- idle reaper ------------------------------------------------------

constexpr const char* kServePool[] = {
    "llama-3.2-1b-fp16",
    "llama-3.2-3b-fp16",
    "deepseek-r1-7b-fp16",
    "gemma-7b-fp16",
};

struct Reap {
  std::int64_t at_ns;
  std::string backend;
  bool operator==(const Reap&) const = default;
};

std::vector<Reap> RunServe(std::uint64_t seed, bool polling) {
  core::testing::TestBed bed;
  sim::Rng rng(seed);
  std::vector<std::pair<std::string, std::string>> entries;
  for (const char* model : kServePool) entries.push_back({model, "ollama"});
  core::SwapServe serve(bed.sim, bed.MakeConfig(entries), bed.catalog,
                        bed.hardware());
  const sim::SimDuration threshold =
      sim::Seconds(static_cast<double>(rng.UniformInt(5, 90)));
  const sim::SimDuration interval =
      sim::Millis(static_cast<double>(rng.UniformInt(700, 15'000)));
  core::IdleReaper reaper(bed.sim, serve.controller(), threshold, interval);
  bool poll_on = polling;
  sim::SimTime started;

  bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await serve.Initialize()).ok());
    started = bed.sim.Now();  // Initialize's own swap-outs are not reaps
    if (polling) {
      bed.sim.Go(PollEvery(bed.sim, interval, &poll_on,
                           [&]() -> sim::Task<> {
                             (void)co_await reaper.ScanOnce();
                           }));
    } else {
      reaper.Start();
    }
    // Bursts with gaps longer and shorter than the threshold (means of 4 s
    // and 60 s).
    for (int i = 0; i < 60; ++i) {
      const double mean_gap_s = rng.Bernoulli(0.2) ? 60.0 : 4.0;
      co_await bed.sim.Delay(sim::Seconds(rng.Exponential(1.0 / mean_gap_s)));
      core::InferenceRequest req;
      req.model = kServePool[rng.UniformInt(0, 3)];
      req.prompt_tokens = rng.UniformInt(8, 512);
      req.max_tokens = rng.UniformInt(8, 128);
      Result<core::ResponseChannelPtr> ch = serve.handler().Accept(req);
      if (!ch.ok()) continue;
      sim::Spawn([channel = *ch]() -> sim::Task<> {
        while (co_await channel->Recv()) {
        }
      });
    }
    co_await bed.sim.Delay(sim::Minutes(5));
    poll_on = false;
    reaper.Stop();
    serve.Shutdown();
  });

  const obs::TraceRecorder& trace = serve.obs().trace;
  EXPECT_EQ(trace.dropped(), 0u) << "seed " << seed;
  std::vector<Reap> reaps;
  for (const obs::TraceEvent& e : trace.Snapshot()) {
    if (e.name != "controller.swap_out" || e.ts_ns < started.ns()) continue;
    for (const auto& [key, value] : e.args) {
      if (key == "trigger" && value == "explicit") {
        reaps.push_back({e.ts_ns, e.track});
      }
    }
  }
  EXPECT_EQ(reaps.size(), reaper.total_reaped()) << "seed " << seed;
  return reaps;
}

TEST(IdleReaperPollingPropertyTest, ParkedReaperReapsExactlyLikePolling) {
  std::size_t reaps = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::vector<Reap> parked = RunServe(seed, /*polling=*/false);
    const std::vector<Reap> polled = RunServe(seed, /*polling=*/true);
    EXPECT_EQ(parked, polled) << "seed " << seed;
    reaps += parked.size();
  }
  EXPECT_GT(reaps, 0u);
}

}  // namespace
}  // namespace swapserve
