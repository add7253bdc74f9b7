// Snapshot-tier benchmark: swap-in latency across a host-cache-size x
// prefetch matrix.
//
// An over-capacity ollama pool keeps the single H100 constantly swapping.
// With an unbounded host cache (the default) every restore is a host hit;
// as the cache shrinks, cold snapshots spill to simulated NVMe
// and restores pay a promotion on the critical path. Demand-aware prefetch
// claws that back by starting the NVMe->host promotion when the request
// arrives (and urgently when its swap-in starts), overlapping it with the
// victim's D2H eviction.
//
// Acceptance (ISSUE 5): with a constrained cache, prefetch-on must show a
// measurably lower swap-in p99 than prefetch-off.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "ckpt/snapshot_tier.h"
#include "sim/random.h"

namespace swapserve::bench {
namespace {

constexpr const char* kPool[] = {
    "llama-3.2-1b-fp16",        "llama-3.2-3b-fp16",
    "deepseek-r1-7b-fp16",      "deepseek-coder-6.7b-fp16",
    "deepseek-r1-14b-fp16",     "gemma-7b-fp16",
};
constexpr int kRequests = 120;

struct CellResult {
  double p50 = 0;
  double p99 = 0;
  double host_hit_rate = 0;
  std::uint64_t prefetch_hits = 0;
  std::uint64_t direct_reads = 0;
  std::uint64_t demotions = 0;
};

CellResult RunCell(double host_cache_mib, bool prefetch) {
  Bed bed(Machine::kH100);
  core::Config cfg;
  for (const char* id : kPool) {
    core::ModelEntry entry;
    entry.model_id = id;
    entry.engine = "ollama";
    cfg.models.push_back(entry);
  }
  cfg.global.host_cache_mib = host_cache_mib;
  cfg.global.snapshot_prefetch = prefetch;
  core::SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
  bed.RunTask([&]() -> sim::Task<> {
    Status init = co_await serve.Initialize();
    SWAP_CHECK_MSG(init.ok(), init.ToString());
    sim::Rng rng(7);  // identical arrival stream for every cell
    // Open-loop arrivals: requests queue while the GPU swaps, which is
    // exactly the demand signal arrival-time prefetch feeds on.
    int outstanding = 0;
    for (int i = 0; i < kRequests; ++i) {
      co_await bed.sim.Delay(sim::Seconds(rng.Exponential(0.25)));
      const char* model = kPool[rng.UniformInt(0, 5)];
      const int prompt = static_cast<int>(rng.UniformInt(32, 256));
      const int tokens = static_cast<int>(rng.UniformInt(8, 64));
      ++outstanding;
      sim::Spawn([&serve, &outstanding, model, prompt,
                  tokens]() -> sim::Task<> {
        core::ChatResult r = co_await serve.ChatAndWait(model, prompt,
                                                        tokens);
        SWAP_CHECK_MSG(r.ok, r.error);
        --outstanding;
      });
    }
    while (outstanding > 0) co_await bed.sim.Delay(sim::Seconds(1));
    serve.Shutdown();
  });

  CellResult cell;
  cell.p50 = serve.metrics().swap_in_latency_s.Median();
  cell.p99 = serve.metrics().swap_in_latency_s.P99();
  const ckpt::SnapshotTierManager& tier = *serve.tier_manager();
  const std::uint64_t lookups = tier.host_hits() + tier.nvme_misses();
  cell.host_hit_rate = lookups == 0
                           ? 1.0
                           : static_cast<double>(tier.host_hits()) /
                                 static_cast<double>(lookups);
  cell.prefetch_hits = tier.prefetch_hits();
  cell.direct_reads = tier.direct_reads();
  cell.demotions = tier.demotions();
  return cell;
}

void Run() {
  PrintHeader(
      "Snapshot tier: swap-in latency vs host-cache size and prefetch",
      "Over-capacity ollama pool (6 models, one H100); bounded host caches\n"
      "spill cold snapshots to NVMe. Prefetch overlaps NVMe->host promotion\n"
      "with the victim's eviction instead of paying it on the swap-in path.");

  struct Cell {
    const char* label;
    double cache_mib;
    bool prefetch;
  };
  const Cell kCells[] = {
      {"unbounded", 0.0, false},
      {"48 GiB, prefetch off", 48.0 * 1024, false},
      {"48 GiB, prefetch on", 48.0 * 1024, true},
      {"32 GiB, prefetch off", 32.0 * 1024, false},
      {"32 GiB, prefetch on", 32.0 * 1024, true},
  };

  TablePrinter table({"Host cache", "Swap-in p50 (s)", "Swap-in p99 (s)",
                      "Host hit rate", "Prefetch hits", "Direct reads",
                      "Demotions"});
  double p99_off = 0, p99_on = 0;  // 32 GiB cells, the constrained pair
  for (const Cell& c : kCells) {
    const CellResult r = RunCell(c.cache_mib, c.prefetch);
    table.AddRow({c.label, TablePrinter::Num(r.p50),
                  TablePrinter::Num(r.p99),
                  TablePrinter::Num(100.0 * r.host_hit_rate, 1) + "%",
                  std::to_string(r.prefetch_hits),
                  std::to_string(r.direct_reads),
                  std::to_string(r.demotions)});
    if (c.cache_mib == 32.0 * 1024) (c.prefetch ? p99_on : p99_off) = r.p99;
  }
  std::printf("%s", table.ToString().c_str());

  const double gain = 100.0 * (p99_off - p99_on) / p99_off;
  std::printf(
      "\nHeadline: with a 32 GiB host cache, demand-aware prefetch cuts "
      "swap-in p99\nfrom %.2fs to %.2fs (%.0f%% lower). The unbounded row "
      "is the baseline:\nevery restore is a host hit and nothing demotes.\n",
      p99_off, p99_on, gain);
  SWAP_CHECK_MSG(p99_on < p99_off,
                 "prefetch failed to lower constrained-cache swap-in p99");
}

}  // namespace
}  // namespace swapserve::bench

int main() {
  swapserve::bench::Run();
  return 0;
}
