// Cluster placement benchmark: locality-aware vs random routing on a
// 4-node fleet.
//
// Six small models are homed round-robin across four single-GPU nodes with
// replicate=2 (each snapshot has one full standby copy; the remaining
// standbys hold metadata-only placeholders served by on-demand remote
// fetch). The same open-loop arrival stream runs under both placement
// policies. Random routing keeps landing requests on placeholder nodes,
// paying a fabric fetch inside the swap-in critical path; locality-aware
// routing scores nodes by estimated swap-in time (which includes the
// remote-fetch term) plus queue pressure, so it prefers nodes that already
// hold the payload — or the model itself.
//
// Acceptance (ISSUE 6): locality-aware placement must show a lower
// cold-start p99 (swap-wait across the fleet) than random placement.
// Emits bench_cluster_placement.json.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "cluster/cluster.h"
#include "json/json.h"
#include "sim/random.h"
#include "util/stats.h"

namespace swapserve::bench {
namespace {

constexpr const char* kPool[] = {
    "llama-3.2-1b-fp16",        "llama-3.2-3b-fp16",
    "deepseek-r1-7b-fp16",      "deepseek-coder-6.7b-fp16",
    "deepseek-r1-14b-fp16",     "gemma-7b-fp16",
};
constexpr int kPoolSize = 6;
constexpr int kNodes = 4;
constexpr int kRequests = 200;

struct Measurement {
  double cold_p50_s = 0;
  double cold_p99_s = 0;
  std::uint64_t cold_starts = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t fetches = 0;
  double fetched_gib = 0;
  std::uint64_t routed = 0;
};

Measurement Measure(const std::string& placement) {
  sim::Simulation sim;
  model::ModelCatalog catalog = model::ModelCatalog::Default();
  core::Config cfg;
  cfg.cluster.nodes = kNodes;
  cfg.cluster.replicate = 2;
  cfg.cluster.placement = placement;
  for (int i = 0; i < kPoolSize; ++i) {
    core::ModelEntry m;
    m.model_id = kPool[i];
    m.engine = "vllm";
    m.node = i % kNodes;
    cfg.models.push_back(std::move(m));
  }
  cluster::ClusterServe fleet(sim, cfg, catalog);

  sim::Spawn([&]() -> sim::Task<> {
    Status init = co_await fleet.Initialize();
    SWAP_CHECK_MSG(init.ok(), init.ToString());
    co_await sim.Delay(sim::Minutes(2));  // let background replication land
    sim::Rng rng(11);  // identical arrival stream for both policies
    int outstanding = 0;
    for (int i = 0; i < kRequests; ++i) {
      co_await sim.Delay(sim::Seconds(rng.Exponential(0.3)));
      const char* model = kPool[rng.UniformInt(0, kPoolSize - 1)];
      const auto prompt = rng.UniformInt(32, 256);
      const auto tokens = rng.UniformInt(8, 64);
      ++outstanding;
      sim::Spawn([&fleet, &outstanding, model, prompt,
                  tokens]() -> sim::Task<> {
        core::ChatResult r = co_await fleet.ChatAndWait(model, prompt,
                                                        tokens);
        SWAP_CHECK_MSG(r.ok, r.error);
        --outstanding;
      });
    }
    while (outstanding > 0) co_await sim.Delay(sim::Seconds(1));
    fleet.Shutdown();
  });
  sim.Run();

  Measurement m;
  Samples cold;  // fleet-wide swap waits for requests that actually waited
  for (int i = 0; i < fleet.nodes(); ++i) {
    const core::Metrics& metrics = fleet.node(i).serve().metrics();
    m.completed += metrics.TotalCompleted();
    m.failed += metrics.TotalFailed() + metrics.TotalExpired();
    for (const auto& [model, per_model] : metrics.per_model()) {
      for (double wait : per_model.swap_wait_s.values()) {
        if (wait > 0) cold.Add(wait);
      }
    }
  }
  m.cold_starts = cold.count();
  m.cold_p50_s = cold.empty() ? 0 : cold.Median();
  m.cold_p99_s = cold.empty() ? 0 : cold.P99();
  m.fetches = fleet.replicator()->fetches();
  m.fetched_gib = static_cast<double>(fleet.replicator()->fetched_bytes()
                                          .count()) /
                  (1024.0 * 1024.0 * 1024.0);
  m.routed = fleet.routed();
  return m;
}

void Run() {
  PrintHeader(
      "Cluster placement: locality-aware vs random routing (4 nodes)",
      "Six vllm models homed round-robin on four single-GPU nodes,\n"
      "replicate=2. Random routing keeps hitting placeholder nodes and\n"
      "pays an on-demand fabric fetch inside the swap-in; locality-aware\n"
      "routing scores estimated swap-in time + queue pressure.");

  TablePrinter table({"Placement", "Cold starts", "Cold p50 (s)",
                      "Cold p99 (s)", "Fetches", "Fetched (GiB)",
                      "Completed", "Failed"});
  json::Value rows = json::Value::MakeArray();
  double p99_locality = 0, p99_random = 0;
  for (const char* placement : {"locality", "random"}) {
    const Measurement m = Measure(placement);
    table.AddRow({placement, std::to_string(m.cold_starts),
                  TablePrinter::Num(m.cold_p50_s),
                  TablePrinter::Num(m.cold_p99_s), std::to_string(m.fetches),
                  TablePrinter::Num(m.fetched_gib),
                  std::to_string(m.completed), std::to_string(m.failed)});
    json::Value row = json::Value::MakeObject();
    row["placement"] = std::string(placement);
    row["cold_starts"] = static_cast<double>(m.cold_starts);
    row["cold_p50_s"] = m.cold_p50_s;
    row["cold_p99_s"] = m.cold_p99_s;
    row["fetches"] = static_cast<double>(m.fetches);
    row["fetched_gib"] = m.fetched_gib;
    row["completed"] = static_cast<double>(m.completed);
    row["failed"] = static_cast<double>(m.failed);
    row["routed"] = static_cast<double>(m.routed);
    rows.PushBack(std::move(row));
    (std::string(placement) == "locality" ? p99_locality : p99_random) =
        m.cold_p99_s;
  }
  std::printf("%s", table.ToString().c_str());

  const char* json_path = "bench_cluster_placement.json";
  {
    json::Value doc = json::Value::MakeObject();
    doc["bench"] = "cluster_placement";
    doc["nodes"] = static_cast<double>(kNodes);
    doc["requests"] = static_cast<double>(kRequests);
    doc["rows"] = std::move(rows);
    std::ofstream os(json_path);
    os << doc.Pretty() << '\n';
  }

  const double gain = 100.0 * (p99_random - p99_locality) / p99_random;
  std::printf(
      "\nHeadline: locality-aware placement cuts the fleet cold-start p99 "
      "from\n%.2fs to %.2fs (%.0f%% lower) by keeping restores on nodes "
      "that already\nhold the snapshot payload instead of fetching it over "
      "the fabric.\n"
      "\nArtifacts:\n  %s  (per-policy cold-start/fetch counters)\n",
      p99_random, p99_locality, gain, json_path);
  SWAP_CHECK_MSG(p99_locality < p99_random,
                 "locality placement failed to lower cold-start p99");
}

}  // namespace
}  // namespace swapserve::bench

int main() {
  swapserve::bench::Run();
  return 0;
}
