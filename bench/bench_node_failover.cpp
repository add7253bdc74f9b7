// Node failover benchmark: replication repair on vs off under a kill-rate
// sweep.
//
// A 3-node fleet with replicate=2 serves an open-loop request stream while
// node.crash faults power nodes off at increasing per-heartbeat rates.
// Both arms see the identical crash schedule (per-node fault streams derive
// from the cluster seed, independent of serving activity); the only knob
// that changes is repair_concurrency. With repair on, the deficit scan
// re-establishes snapshot copies on survivors after every crash, so a later
// crash of the remaining holder still leaves a warm restore path. With
// repair off, copies erode crash by crash until a swap-in has no payload
// anywhere — a cold start in the critical path — and rejoining nodes keep
// serving placeholder restores through on-demand fabric fetches.
//
// Acceptance (ISSUE 8): at >= 1 non-zero kill rate, repair-on must beat
// repair-off on goodput or completed-latency p99. Emits
// bench_node_failover.json.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "cluster/cluster.h"
#include "fault/fault_injector.h"
#include "json/json.h"
#include "sim/random.h"
#include "util/stats.h"

namespace swapserve::bench {
namespace {

constexpr const char* kPool[] = {
    "llama-3.2-1b-fp16",
    "llama-3.2-3b-fp16",
    "deepseek-r1-7b-fp16",
};
constexpr int kPoolSize = 3;
constexpr double kTrafficS = 300.0;  // armed, open-loop arrival window
constexpr double kDrainS = 180.0;    // disarmed: reboots, repair, drain

struct Measurement {
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t dropped = 0;
  std::uint64_t crashes = 0;
  std::uint64_t failovers = 0;
  std::uint64_t promotions = 0;
  std::uint64_t repairs = 0;
  double goodput_rpm = 0;  // completed per traffic minute
  double p50_s = 0;
  double p99_s = 0;
};

Measurement Measure(double kill_rate, int repair_concurrency) {
  sim::Simulation sim;
  model::ModelCatalog catalog = model::ModelCatalog::Default();

  core::Config cfg;
  cfg.cluster.nodes = 3;
  cfg.cluster.node_gpus = {2, 1, 1};
  cfg.cluster.replicate = 2;
  cfg.cluster.heartbeat_interval_s = 0.5;
  cfg.cluster.suspect_after_s = 1.0;
  cfg.cluster.down_after_s = 3.0;
  cfg.cluster.node_restart_s = 10.0;
  cfg.cluster.repair_interval_s = 2.0;
  cfg.cluster.repair_concurrency = repair_concurrency;
  cfg.global.queue_capacity = 64;
  cfg.fault.seed = 17;  // same crash schedule in both arms
  const int kHomes[] = {0, 0, 1};
  const int kGpus[] = {0, 1, 0};
  for (int i = 0; i < kPoolSize; ++i) {
    core::ModelEntry m;
    m.model_id = kPool[i];
    m.engine = "vllm";
    m.node = kHomes[i];
    m.gpu = kGpus[i];
    cfg.models.push_back(std::move(m));
  }

  // Crashes only: flaky reboots would blur the repair ablation. stall_s
  // is the outage length before the reboot starts.
  fault::FaultPlan plan;
  if (kill_rate > 0) {
    fault::FaultRule rule;
    rule.point = "node.crash";
    rule.probability = kill_rate;
    rule.fail = true;
    rule.stall_s = 25.0;
    rule.code = StatusCode::kUnavailable;
    plan.rules.push_back(std::move(rule));
  }

  cluster::ClusterServe fleet(sim, cfg, catalog);
  Measurement m;
  Samples latency;  // accept -> kDone, completed requests only
  sim::Spawn([&]() -> sim::Task<> {
    Status init = co_await fleet.Initialize();
    SWAP_CHECK_MSG(init.ok(), init.ToString());
    for (int i = 0; i < fleet.nodes(); ++i) {
      fleet.node(i).serve().fault_injector().Configure(plan);
    }

    sim::Rng rng(23);  // identical arrival stream in both arms
    const sim::SimTime traffic_end = sim.Now() + sim::Seconds(kTrafficS);
    while (sim.Now() < traffic_end) {
      co_await sim.Delay(sim::Seconds(rng.Exponential(1.0)));
      core::InferenceRequest req;
      req.model = kPool[rng.UniformInt(0, kPoolSize - 1)];
      req.prompt_tokens = rng.UniformInt(32, 256);
      req.max_tokens = rng.UniformInt(32, 128);
      Result<core::ResponseChannelPtr> ch = fleet.Accept(std::move(req));
      if (!ch.ok()) {
        ++m.rejected;
        continue;
      }
      ++m.accepted;
      const sim::SimTime accepted_at = sim.Now();
      sim::Spawn([&, accepted_at, channel = *ch]() -> sim::Task<> {
        while (auto chunk = co_await channel->Recv()) {
          if (chunk->kind == core::ResponseChunk::Kind::kDone) {
            latency.Add((sim.Now() - accepted_at).ToSeconds());
          }
        }
      });
    }
    // Disarm so every outage is finite, then give reboots/repair/rejoin a
    // fixed drain window; leftovers terminate as errors at Shutdown and
    // land in the loss column.
    for (int i = 0; i < fleet.nodes(); ++i) {
      fleet.node(i).serve().fault_injector().Configure(fault::FaultPlan{});
    }
    co_await sim.Delay(sim::Seconds(kDrainS));
    fleet.Shutdown();
  });
  sim.Run();

  for (int i = 0; i < fleet.nodes(); ++i) {
    const core::Metrics& metrics = fleet.node(i).serve().metrics();
    m.completed += metrics.TotalCompleted();
    m.failed += metrics.TotalFailed() + metrics.TotalExpired();
    m.crashes += fleet.node(i).crashes();
  }
  m.dropped = fleet.redispatch_dropped();
  m.failovers = fleet.failovers();
  m.promotions = fleet.standby_promotions();
  m.repairs =
      fleet.repairer() != nullptr ? fleet.repairer()->completed() : 0;
  m.goodput_rpm = static_cast<double>(m.completed) / (kTrafficS / 60.0);
  m.p50_s = latency.empty() ? 0 : latency.Median();
  m.p99_s = latency.empty() ? 0 : latency.P99();
  return m;
}

void Run() {
  PrintHeader(
      "Node failover: replication repair on vs off (kill-rate sweep)",
      "3 nodes, replicate=2, identical crash schedules per rate. Repair-on\n"
      "re-establishes snapshot copies on survivors after each crash;\n"
      "repair-off erodes copies until restores go cold or remote.");

  TablePrinter table({"Kill rate", "Repair", "Crashes", "Failovers",
                      "Repairs", "Goodput (req/min)", "p50 (s)", "p99 (s)",
                      "Lost"});
  json::Value rows = json::Value::MakeArray();
  bool repair_wins_somewhere = false;
  for (double rate : {0.0, 0.002, 0.006}) {
    Measurement on;
    for (int conc : {2, 0}) {
      const Measurement m = Measure(rate, conc);
      const bool repair_on = conc > 0;
      if (repair_on) {
        on = m;
      } else if (rate > 0 &&
                 (on.goodput_rpm > m.goodput_rpm || on.p99_s < m.p99_s)) {
        repair_wins_somewhere = true;
      }
      const std::uint64_t lost = m.failed + m.dropped + m.rejected;
      char rate_s[16];
      std::snprintf(rate_s, sizeof(rate_s), "%.3f", rate);
      table.AddRow({rate_s, repair_on ? "on" : "off",
                    std::to_string(m.crashes), std::to_string(m.failovers),
                    std::to_string(m.repairs),
                    TablePrinter::Num(m.goodput_rpm),
                    TablePrinter::Num(m.p50_s), TablePrinter::Num(m.p99_s),
                    std::to_string(lost)});
      json::Value row = json::Value::MakeObject();
      row["kill_rate"] = rate;
      row["repair"] = std::string(repair_on ? "on" : "off");
      row["accepted"] = static_cast<double>(m.accepted);
      row["completed"] = static_cast<double>(m.completed);
      row["failed"] = static_cast<double>(m.failed);
      row["rejected"] = static_cast<double>(m.rejected);
      row["dropped"] = static_cast<double>(m.dropped);
      row["crashes"] = static_cast<double>(m.crashes);
      row["failovers"] = static_cast<double>(m.failovers);
      row["promotions"] = static_cast<double>(m.promotions);
      row["repairs"] = static_cast<double>(m.repairs);
      row["goodput_rpm"] = m.goodput_rpm;
      row["p50_s"] = m.p50_s;
      row["p99_s"] = m.p99_s;
      rows.PushBack(std::move(row));
    }
  }
  std::printf("%s", table.ToString().c_str());

  const char* json_path = "bench_node_failover.json";
  {
    json::Value doc = json::Value::MakeObject();
    doc["bench"] = "node_failover";
    doc["traffic_s"] = kTrafficS;
    doc["rows"] = std::move(rows);
    std::ofstream os(json_path);
    os << doc.Pretty() << '\n';
  }

  std::printf(
      "\nHeadline: replication repair keeps a crashed node's models "
      "restorable\non the survivors, so repeated crashes stay warm "
      "restores instead of cold\nstarts in the serving path.\n"
      "\nArtifacts:\n  %s  (per-rate, per-arm fleet counters)\n",
      json_path);
  SWAP_CHECK_MSG(repair_wins_somewhere,
                 "repair-on failed to beat repair-off at every kill rate");
}

}  // namespace
}  // namespace swapserve::bench

int main() {
  swapserve::bench::Run();
  return 0;
}
