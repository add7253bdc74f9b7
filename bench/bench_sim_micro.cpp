// Wall-clock microbenchmarks of the simulation substrate (google-benchmark).
//
// These measure the *simulator's* own cost — events/second, coroutine
// overhead, channel throughput — which bounds how much virtual time the
// figure benches can chew through per real second.
//
// Machine-readable output: set SWAPSERVE_BENCH_JSON=<path> to also write a
// {benchmark -> events_per_sec} JSON document (bench::WriteBenchJson);
// scripts/check_perf.sh uses it to gate regressions against the checked-in
// BENCH_sim_core.json baseline.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "json/json.h"
#include "sim/channel.h"
#include "sim/combinators.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "workload/trace.h"

namespace swapserve {
namespace {

void BM_EventQueueThroughput(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      sim.Schedule(sim::Millis(i % 1000), [&fired] { ++fired; });
    }
    sim.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueThroughput)->Arg(1000)->Arg(100000);

void BM_CoroutineSpawnDelay(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    int done = 0;
    for (int i = 0; i < n; ++i) {
      sim.Go([&sim, &done, i]() -> sim::Task<> {
        co_await sim.Delay(sim::Millis(i % 100));
        ++done;
      });
    }
    sim.Run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CoroutineSpawnDelay)->Arg(1000)->Arg(10000);

void BM_PostThroughput(benchmark::State& state) {
  // The ubiquitous "wake at Now()" path (sync.h, channel.h, mutex handoff):
  // a ready-ring push/pop per event, no timer-heap sift.
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    int hops = 0;
    sim.Go([&sim, &hops, n]() -> sim::Task<> {
      for (int i = 0; i < n; ++i) {
        co_await sim.Yield();
        ++hops;
      }
    });
    sim.Run();
    benchmark::DoNotOptimize(hops);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PostThroughput)->Arg(100000);

void BM_WaitUntil(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    int wakes = 0;
    sim.Go([&sim, &wakes, n]() -> sim::Task<> {
      for (int i = 0; i < n; ++i) {
        co_await sim.WaitUntil(sim.Now() + sim::Micros(1));
        ++wakes;
      }
    });
    sim.Run();
    benchmark::DoNotOptimize(wakes);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_WaitUntil)->Arg(100000);

void BM_MutexUncontended(benchmark::State& state) {
  // Uncontended acquire/release never suspends: await_ready takes the lock
  // inline and Unlock finds no waiters.
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    sim::SimMutex mu(sim);
    std::int64_t acquires = 0;
    sim.Go([&mu, &acquires, n]() -> sim::Task<> {
      for (int i = 0; i < n; ++i) {
        auto guard = co_await mu.Acquire();
        ++acquires;
      }
      co_return;
    });
    sim.Run();
    benchmark::DoNotOptimize(acquires);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MutexUncontended)->Arg(100000);

void BM_ChannelPingPong(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    sim::Channel<int> ch(sim, 16);
    sim.Go([&]() -> sim::Task<> {
      for (int i = 0; i < n; ++i) (void)co_await ch.Send(i);
      ch.Close();
    });
    std::int64_t sum = 0;
    sim.Go([&]() -> sim::Task<> {
      while (auto v = co_await ch.Recv()) sum += *v;
    });
    sim.Run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ChannelPingPong)->Arg(10000);

void BM_MutexHandoff(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    sim::SimMutex mu(sim);
    int criticals = 0;
    for (int i = 0; i < 100; ++i) {
      sim.Go([&]() -> sim::Task<> {
        for (int k = 0; k < 10; ++k) {
          auto guard = co_await mu.Acquire();
          ++criticals;
          co_await sim.Delay(sim::Micros(1));
        }
      });
    }
    sim.Run();
    benchmark::DoNotOptimize(criticals);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MutexHandoff);

void BM_RngExponential(benchmark::State& state) {
  sim::Rng rng(42);
  double acc = 0;
  for (auto _ : state) acc += rng.Exponential(1.0);
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngExponential);

void BM_JsonParseChatRequest(benchmark::State& state) {
  const std::string body = R"({
    "model": "deepseek-r1-7b-fp16",
    "messages": [
      {"role": "system", "content": "You are a helpful assistant."},
      {"role": "user", "content": "Explain checkpoint/restore for GPUs."}
    ],
    "max_tokens": 256, "temperature": 0, "seed": 7, "stream": true
  })";
  for (auto _ : state) {
    auto v = json::Parse(body);
    benchmark::DoNotOptimize(v.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(body.size()));
}
BENCHMARK(BM_JsonParseChatRequest);

void BM_TraceGenerationWeek(benchmark::State& state) {
  workload::DiurnalRate rate = workload::DiurnalRate::CodingPreset(0.5);
  workload::RequestProfile profile = workload::RequestProfile::Coding();
  for (auto _ : state) {
    std::vector<workload::ModelWorkload> mix = {{"m", &rate, &profile}};
    auto trace = workload::GenerateTrace(mix, 7 * 86400.0, 1);
    benchmark::DoNotOptimize(trace.size());
  }
}
BENCHMARK(BM_TraceGenerationWeek);

// The Fig. 3 shape over 360 days: six models with sparse MMPP bursts.
void BM_TraceGenerationMmppYear(benchmark::State& state) {
  const double horizon = 360 * 86400.0;
  workload::RequestProfile profile = workload::RequestProfile::Conversational();
  std::vector<std::unique_ptr<workload::MmppRate>> rates;
  std::vector<workload::ModelWorkload> mix;
  for (int m = 0; m < 6; ++m) {
    rates.push_back(std::make_unique<workload::MmppRate>(
        0.00012, 0.02, 18000, 1200, /*seed=*/100 + m, horizon));
    mix.push_back({"model-" + std::to_string(m), rates.back().get(),
                   &profile});
  }
  for (auto _ : state) {
    auto trace = workload::GenerateTrace(mix, horizon, 1);
    benchmark::DoNotOptimize(trace.size());
  }
}
BENCHMARK(BM_TraceGenerationMmppYear)->Unit(benchmark::kMillisecond);

// Console output as usual, plus a capture of every run's items_per_second
// for the optional JSON dump (SWAPSERVE_BENCH_JSON).
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (run.error_occurred) continue;
      auto it = run.counters.find("items_per_second");
      if (it == run.counters.end()) continue;
      rows_.emplace_back(run.benchmark_name(),
                         static_cast<double>(it->second));
    }
    ConsoleReporter::ReportRuns(report);
  }
  const std::vector<std::pair<std::string, double>>& rows() const {
    return rows_;
  }

 private:
  std::vector<std::pair<std::string, double>> rows_;
};

}  // namespace
}  // namespace swapserve

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  swapserve::CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (const char* path = std::getenv("SWAPSERVE_BENCH_JSON")) {
    swapserve::bench::WriteBenchJson(
        path, "events_per_sec", reporter.rows(),
        "bench_sim_micro items/sec per benchmark (wall-clock, "
        "RelWithDebInfo)");
  }
  return 0;
}
