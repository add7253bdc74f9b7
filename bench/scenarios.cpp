#include "bench/scenarios.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <span>
#include <type_traits>

#include "baseline/dedicated.h"
#include "baseline/ollama_lru.h"
#include "obs/exporters.h"
#include "sim/combinators.h"
#include "sim/random.h"
#include "workload/trace.h"

namespace swapserve::bench {
namespace {

using workload::TraceEvent;

// A config serving each of `models` on `engine`, every entry at its
// defaults.
core::Config ConfigFor(std::span<const char* const> models,
                       model::EngineKind engine) {
  core::Config cfg;
  for (const char* m : models) {
    core::ModelEntry entry;
    entry.model_id = m;
    entry.engine = model::ProfileFor(engine).name;
    cfg.models.push_back(entry);
  }
  return cfg;
}

// A trace of `profile` requests over `models`, model i arriving at the rate
// curve `rate_for(i)` returns.
template <typename RateFor>
std::vector<TraceEvent> MakeTrace(std::span<const char* const> models,
                                  const workload::RequestProfile& profile,
                                  double horizon_s, std::uint64_t seed,
                                  RateFor rate_for) {
  std::vector<std::unique_ptr<workload::RateCurve>> rates;
  std::vector<workload::ModelWorkload> mix;
  for (std::size_t i = 0; i < models.size(); ++i) {
    rates.push_back(rate_for(i));
    mix.push_back({models[i], rates.back().get(), &profile});
  }
  return workload::GenerateTrace(mix, horizon_s, seed);
}

// Initialises `server`, then sends each request of `trace` at its arrival
// time (counted from the end of initialisation) without waiting for the
// reply, drains for `drain` and stops the server. `monitor`, if given, runs
// from the end of initialisation to the end of the drain. Returns how many
// requests were sent.
template <typename Server>
std::size_t Replay(Bed& bed, Server& server,
                   const std::vector<TraceEvent>& trace,
                   sim::SimDuration drain,
                   hw::GpuMonitor* monitor = nullptr) {
  constexpr bool kSwapServe = std::is_same_v<Server, core::SwapServe>;
  std::size_t sent = 0;
  bed.RunTask([&]() -> sim::Task<> {
    const Status init = co_await server.Initialize();
    SWAP_CHECK(init.ok());
    if (monitor != nullptr) monitor->Start();
    const double start = bed.sim.Now().ToSeconds();
    for (const TraceEvent& ev : trace) {
      co_await bed.sim.WaitUntil(sim::SimTime(
          static_cast<std::int64_t>((start + ev.time_s) * 1e9)));
      sim::Spawn([&server, ev]() -> sim::Task<> {
        if constexpr (kSwapServe) {
          (void)co_await server.ChatAndWait(ev.model_id, ev.prompt_tokens,
                                            ev.output_tokens);
        } else {
          (void)co_await server.Chat(ev.model_id, ev.prompt_tokens,
                                     ev.output_tokens);
        }
      });
      ++sent;
    }
    co_await bed.sim.Delay(drain);
    if (monitor != nullptr) monitor->Stop();
    if constexpr (kSwapServe) server.Shutdown();
  });
  return sent;
}

// The columns every trace scenario reads from the serving side's metrics
// and from its first `gpus` monitored GPUs over [0, horizon_s].
TraceRun Summarize(core::Metrics& metrics, hw::GpuMonitor& monitor,
                   std::size_t gpus, double horizon_s, std::size_t sent) {
  TraceRun run;
  run.sent = sent;
  run.completed = metrics.TotalCompleted();
  const Samples ttft = metrics.AllTtft();
  run.p50_ttft_s = ttft.Median();
  run.p99_ttft_s = ttft.P99();
  run.swap_ins = metrics.swap_ins;
  run.preemptions = metrics.preemptions;
  Samples waits;
  for (const auto& [m, mm] : metrics.per_model()) {
    for (double v : mm.swap_wait_s.values()) waits.Add(v);
  }
  run.mean_swap_wait_s = waits.mean();
  double util_sum = 0;
  for (std::size_t i = 0; i < gpus; ++i) {
    run.mean_mem_gib += monitor.MemorySeries(i).TimeWeightedMean(0, horizon_s);
    run.peak_mem_gib =
        std::max(run.peak_mem_gib, monitor.MemorySeries(i).MaxValue());
    util_sum += monitor.UtilizationSeries(i).TimeWeightedMean(0, horizon_s);
  }
  run.mean_util_pct = util_sum / static_cast<double>(gpus) * 100.0;
  run.gpu_hours = static_cast<double>(gpus) * horizon_s / 3600.0;
  return run;
}

// Serves `trace` with SwapServeLLM on one H100.
TraceRun ServeOnOneGpu(core::Config cfg,
                       const std::vector<TraceEvent>& trace,
                       sim::SimDuration drain, double horizon_s,
                       core::SwapServeOptions options = {}) {
  Bed bed(Machine::kH100);
  core::SwapServe serve(bed.sim, std::move(cfg), bed.catalog, bed.hardware(),
                        options);
  const std::size_t sent = Replay(bed, serve, trace, drain);
  return Summarize(serve.metrics(), serve.monitor(), 1, horizon_s, sent);
}

// Serves `trace` with one dedicated Ollama H100 per model of `models`.
TraceRun ServeDedicated(std::span<const char* const> models,
                        const std::vector<TraceEvent>& trace,
                        sim::SimDuration drain, double horizon_s) {
  Bed bed(Machine::kH100, static_cast<int>(models.size()));
  std::vector<baseline::DedicatedServing::Assignment> assignments;
  for (std::size_t i = 0; i < models.size(); ++i) {
    assignments.push_back({bed.catalog.Find(models[i]).value(),
                           model::EngineKind::kOllama, bed.gpus[i].get()});
  }
  baseline::DedicatedServing dedicated(bed.sim, std::move(assignments),
                                       bed.storage);
  hw::GpuMonitor monitor(bed.sim, bed.hardware().gpus, sim::Seconds(300));
  const std::size_t sent = Replay(bed, dedicated, trace, drain, &monitor);
  return Summarize(dedicated.metrics(), monitor, models.size(), horizon_s,
                   sent);
}

// Cold-starts `kind`'s engine for `model_id` on a fresh H100, then runs
// `then(sim, engine)` on the warm engine.
template <typename Then>
ColdStart StartEngine(model::EngineKind kind, const std::string& model_id,
                      Then then) {
  Bed bed(Machine::kH100);
  const model::EngineProfile& profile = model::ProfileFor(kind);
  engine::InferenceEngine eng(profile, bed.env(),
                              bed.catalog.Find(model_id).value(),
                              engine::EngineOptions{},
                              std::string(profile.name) + "-" + model_id);
  ColdStart out;
  bed.RunTask([&]() -> sim::Task<> {
    const sim::SimTime t0 = bed.sim.Now();
    Result<engine::InitBreakdown> init = co_await eng.ColdStart();
    SWAP_CHECK_MSG(init.ok(), init.status().ToString());
    out.seconds = (bed.sim.Now() - t0).ToSeconds();
    out.breakdown = *init;
    co_await then(bed.sim, eng);
  });
  return out;
}

// T1's request: a 512-token prompt, 256 tokens out.
constexpr engine::GenerationRequest kT1Request{.prompt_tokens = 512,
                                               .output_tokens = 256};

// swaplint-ok(coro-ref-param): the engine outlives the batch it serves
sim::Task<> GenerateT1(engine::InferenceEngine& eng) {
  Result<engine::GenerationResult> r = co_await eng.Generate(kT1Request);
  SWAP_CHECK(r.ok());
}

}  // namespace

ColdStart MeasureColdStart(model::EngineKind kind,
                           const std::string& model_id) {
  return StartEngine(kind, model_id,
                     [](sim::Simulation&, engine::InferenceEngine&)
                         -> sim::Task<> { co_return; });
}

SwapIn MeasureSwapIn(Machine machine, const std::string& model_id,
                     model::EngineKind engine, bool sleep_mode) {
  Bed bed(machine);
  const char* ids[] = {model_id.c_str()};
  core::Config cfg = ConfigFor(ids, engine);
  cfg.models[0].sleep_mode = sleep_mode;
  core::SwapServe serve(bed.sim, std::move(cfg), bed.catalog,
                        bed.hardware());
  SwapIn out;
  bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await serve.Initialize()).ok());
    out.resident_gib = serve.backend(model_id)->resident_bytes.AsGiB();
    out.snapshot_gib =
        serve.snapshot_store().All().front().dirty_bytes.AsGiB();
    core::ChatResult r = co_await serve.ChatAndWait(model_id, 64, 16);
    SWAP_CHECK_MSG(r.ok, r.error);
    serve.Shutdown();
  });
  out.swap_in_s = serve.metrics().swap_in_latency_s.max();
  out.swap_out_s = serve.metrics().swap_out_latency_s.mean();
  return out;
}

double MeasureOllamaLoad(Machine machine, const std::string& model_id,
                         bool tmpfs, double disk_bw_scale) {
  Bed bed(machine, /*gpu_count=*/1, tmpfs, disk_bw_scale);
  baseline::OllamaLruServing ollama(bed.sim, *bed.gpus[0], bed.storage);
  double load_s = 0;
  bed.RunTask([&]() -> sim::Task<> {
    std::vector<model::ModelSpec> specs = {
        bed.catalog.Find(model_id).value()};
    SWAP_CHECK((co_await ollama.Initialize(specs)).ok());
    Result<sim::SimDuration> t = co_await ollama.MeasureLoad(model_id);
    SWAP_CHECK_MSG(t.ok(), t.status().ToString());
    load_s = t->ToSeconds();
  });
  return load_s;
}

std::vector<Fig5Row> RunFig5() {
  constexpr const char* kModels[] = {
      "deepseek-r1-1.5b-q4", "deepseek-r1-1.5b-q8", "deepseek-r1-1.5b-fp16",
      "deepseek-r1-7b-q4",   "deepseek-r1-7b-q8",   "deepseek-r1-7b-fp16",
      "deepseek-r1-8b-q4",   "deepseek-r1-8b-q8",   "deepseek-r1-8b-fp16",
      "deepseek-r1-14b-q4",  "deepseek-r1-14b-q8",  "deepseek-r1-14b-fp16",
      "llama-3.2-1b-fp16",   "llama-3.2-3b-fp16",   "llama-3.1-8b-fp16",
  };
  sim::Rng trial_rng(0xf165);
  std::vector<Fig5Row> rows;
  for (const char* model_id : kModels) {
    Fig5Row row{.model_id = model_id, .disk_min_s = 1e18};
    for (int trial = 0; trial < 5; ++trial) {
      // Cold page cache reads at ~0.5x the nominal rate, warm at ~1.1x.
      const double t = MeasureOllamaLoad(Machine::kA100, model_id,
                                         /*tmpfs=*/false,
                                         trial_rng.Uniform(0.45, 1.1));
      row.disk_min_s = std::min(row.disk_min_s, t);
      row.disk_max_s = std::max(row.disk_max_s, t);
    }
    row.memory_s =
        MeasureOllamaLoad(Machine::kA100, model_id, /*tmpfs=*/true, 1.0);
    row.swapserve_s = MeasureSwapIn(Machine::kA100, model_id,
                                    model::EngineKind::kOllama,
                                    /*sleep_mode=*/true)
                          .swap_in_s;
    rows.push_back(std::move(row));
  }
  return rows;
}

Fig3Month RunFig3Month() {
  constexpr const char* kModels[] = {
      "deepseek-r1-14b-q8",       "deepseek-r1-7b-q8",
      "deepseek-r1-8b-q8",        "deepseek-coder-6.7b-fp16",
      "llama-3.2-3b-fp16",        "llama-3.2-1b-fp16",
  };
  // Seeds each model's MMPP switch times and the trace itself.
  constexpr std::uint64_t kSeed = 0xf163;
  const double horizon = kFig3Days * 86400.0;
  // Sporadic academic usage: hours of silence broken by short bursts.
  const std::vector<TraceEvent> trace = MakeTrace(
      kModels, workload::RequestProfile::Conversational(), horizon, kSeed,
      [&](std::size_t i) {
        return std::make_unique<workload::MmppRate>(
            /*quiet_rps=*/0.00012, /*burst_rps=*/0.02,
            /*mean_quiet_s=*/5 * 3600, /*mean_burst_s=*/1200, kSeed + i,
            horizon);
      });
  Fig3Month month;
  month.requests = trace.size();
  month.dedicated = ServeDedicated(kModels, trace, sim::Hours(1), horizon);
  core::Config cfg = ConfigFor(kModels, model::EngineKind::kOllama);
  cfg.global.monitor_interval_s = 300;
  month.swapserve = ServeOnOneGpu(std::move(cfg), trace, sim::Hours(1),
                                  horizon);
  return month;
}

void WriteFig6aArtifacts(const std::string& trace_path,
                         const std::string& prom_path) {
  constexpr const char* kModels[] = {"llama-3.2-1b-fp16",
                                     "llama-3.1-8b-fp16"};
  Bed bed(Machine::kH100);
  core::SwapServe serve(bed.sim, ConfigFor(kModels, model::EngineKind::kVllm),
                        bed.catalog, bed.hardware());
  bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await serve.Initialize()).ok());
    // Alternate models so every request forces a swap-in (both are ~72 GiB
    // resident; one H100 holds only one at a time).
    for (int round = 0; round < 2; ++round) {
      for (const char* m : kModels) {
        core::ChatResult r = co_await serve.ChatAndWait(m, 64, 16);
        SWAP_CHECK_MSG(r.ok, r.error);
      }
    }
    serve.Shutdown();
  });
  std::ofstream trace(trace_path);
  obs::WriteChromeTrace(serve.obs().trace, trace);
  std::ofstream prom(prom_path);
  obs::WritePrometheusText(serve.obs().metrics, prom);
}

Throughput MeasureThroughput(model::EngineKind kind,
                             const std::string& model_id) {
  Throughput out;
  StartEngine(kind, model_id,
              [&](sim::Simulation&, engine::InferenceEngine& eng)
                  -> sim::Task<> {
                Result<engine::GenerationResult> r =
                    co_await eng.Generate(kT1Request);
                SWAP_CHECK(r.ok());
                out.ttft_ms = r->time_to_first_token.ToMillis();
                out.tokens_per_s_b1 =
                    256.0 /
                    (r->total_time - r->time_to_first_token).ToSeconds();
              });
  // 16 concurrent streams (continuous batching).
  StartEngine(kind, model_id,
              [&](sim::Simulation& sim, engine::InferenceEngine& eng)
                  -> sim::Task<> {
                const sim::SimTime t0 = sim.Now();
                std::vector<sim::Task<>> batch;
                for (int i = 0; i < 16; ++i) batch.push_back(GenerateT1(eng));
                co_await sim::WhenAll(sim, batch);
                out.tokens_per_s_b16 =
                    16.0 * 256.0 / (sim.Now() - t0).ToSeconds();
              });
  return out;
}

TraceRun RunPreemption(core::PreemptionPolicy policy) {
  constexpr const char* kModels[] = {
      "deepseek-r1-14b-fp16",      // 30 GiB, hottest
      "deepseek-r1-8b-fp16",       // 17 GiB
      "gemma-7b-fp16",             // 19 GiB
      "deepseek-r1-7b-fp16",       // 17 GiB
      "deepseek-coder-6.7b-fp16",  // 15 GiB
      "llama-3.2-3b-fp16",         // 8 GiB, coldest
  };
  // Zipf-ish popularity: the busy models should never be preferred victims.
  static constexpr double kWeights[] = {8.0, 5.0, 3.0, 2.0, 1.0, 0.5};
  // 2-hour Poisson workload, same seed for all policies.
  const double horizon = 2 * 3600.0;
  const std::vector<TraceEvent> trace = MakeTrace(
      kModels, workload::RequestProfile::ShortQa(), horizon, 0xab1,
      [](std::size_t i) {
        return std::make_unique<workload::ConstantRate>(kWeights[i] * 0.01);
      });
  return ServeOnOneGpu(ConfigFor(kModels, model::EngineKind::kOllama), trace,
                       sim::Minutes(10), horizon,
                       {.preemption_policy = policy});
}

Reservation RunReservation() {
  // One model per ReservationRequest; the follow-up asks for gemma again.
  static constexpr const char* kModels[] = {"gemma-7b-fp16",
                                     "deepseek-coder-6.7b-fp16",
                                     "llama-3.3-70b-fp8", "gemma-7b-fp16"};
  Bed bed(Machine::kA100);
  core::SwapServe serve(
      bed.sim,
      ConfigFor(std::span(kModels).first(3), model::EngineKind::kOllama),
      bed.catalog, bed.hardware());
  Reservation out;
  auto note = [&](ReservationRequest which, bool served, double wait_s) {
    out.timeline.push_back({which, served, bed.sim.Now().ToSeconds(), wait_s,
                            serve.metrics().preemptions});
  };
  auto send = [&](ReservationRequest which) {
    sim::Spawn([&serve, &note, which]() -> sim::Task<> {
      note(which, /*served=*/false, 0);
      core::ChatResult r = co_await serve.ChatAndWait(
          kModels[static_cast<int>(which)], 64, 16);
      note(which, /*served=*/true, r.swap_wait_s);
    });
  };

  double t_init_done = 0;
  bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await serve.Initialize()).ok());
    t_init_done = bed.sim.Now().ToSeconds();
    // Phase 1: simultaneous requests for the two small models.
    send(ReservationRequest::kGemma);
    send(ReservationRequest::kCoder);
    co_await bed.sim.Delay(sim::Seconds(60));
    // Phase 2: the 75 GiB model arrives; both residents must be evicted.
    send(ReservationRequest::kLlama70b);
    // Phase 3: once gemma has been evicted for the 70B, a follow-up gemma
    // request needs a fresh reservation — it must queue behind the
    // outstanding 70B reservation, not bypass it (FIFO).
    co_await bed.sim.Delay(sim::Seconds(6));
    send(ReservationRequest::kGemmaFollowUp);
    co_await bed.sim.Delay(sim::Minutes(10));
    serve.Shutdown();
  });
  for (ReservationStep& step : out.timeline) step.t_s -= t_init_done;
  out.preemptions = serve.metrics().preemptions;
  return out;
}

Consolidation RunConsolidation(int n_models) {
  constexpr const char* kPool[] = {
      "llama-3.2-1b-fp16",        "llama-3.2-3b-fp16",
      "deepseek-coder-6.7b-fp16", "deepseek-r1-7b-fp16",
      "llama-3.1-8b-fp16",        "gemma-7b-fp16",
      "deepseek-r1-8b-fp16",      "deepseek-r1-14b-q8",
      "deepseek-r1-7b-q8",        "deepseek-r1-14b-q4",
      "llama-3.2-1b-q8",          "llama-3.2-3b-q8",
  };
  const std::span<const char* const> models =
      std::span(kPool).first(static_cast<std::size_t>(n_models));
  const double horizon = 24 * 3600.0;
  const std::vector<TraceEvent> trace = MakeTrace(
      models, workload::RequestProfile::ShortQa(), horizon, 0xab4,
      [](std::size_t) {
        return std::make_unique<workload::DiurnalRate>(
            workload::DiurnalRate::CodingPreset(0.02));
      });
  Consolidation out;
  out.requests = trace.size();
  out.dedicated = ServeDedicated(models, trace, sim::Minutes(30), horizon);
  out.swapserve =
      ServeOnOneGpu(ConfigFor(models, model::EngineKind::kOllama), trace,
                    sim::Minutes(30), horizon);
  return out;
}

MultiGpu RunMultiGpu(int gpus) {
  constexpr const char* kModels[] = {
      "llama-3.2-1b-fp16", "deepseek-r1-7b-fp16",
      "llama-3.2-3b-fp16", "deepseek-r1-8b-fp16",
      "llama-3.1-8b-fp16", "deepseek-r1-14b-fp16",
      "gemma-3-4b-fp16",   "gemma-3-12b-fp16",
  };
  Bed bed(Machine::kH100, gpus);
  core::Config cfg = ConfigFor(kModels, model::EngineKind::kVllm);
  for (std::size_t i = 0; i < cfg.models.size(); ++i) {
    cfg.models[i].gpu = static_cast<int>(i) % gpus;
  }
  core::SwapServe serve(bed.sim, std::move(cfg), bed.catalog,
                        bed.hardware());

  MultiGpu out;
  bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await serve.Initialize()).ok());
    const sim::SimTime t0 = bed.sim.Now();
    for (int round = 0; round < 3; ++round) {
      // All models fire simultaneously: with 4 GPUs, four swap-ins can
      // proceed in parallel; with 1 GPU they serialize on the device.
      std::vector<sim::Task<>> wave;
      for (const char* m : kModels) {
        wave.push_back([](core::SwapServe& s, const char* model)
                           -> sim::Task<> {
          core::ChatResult r = co_await s.ChatAndWait(model, 64, 16);
          SWAP_CHECK_MSG(r.ok, r.error);
        }(serve, m));
      }
      co_await sim::WhenAll(bed.sim, wave);
    }
    out.makespan_s = (bed.sim.Now() - t0).ToSeconds();
    serve.Shutdown();
  });
  out.swap_ins = serve.metrics().swap_ins;
  out.preemptions = serve.metrics().preemptions;
  out.mean_swap_in_s = serve.metrics().swap_in_latency_s.mean();
  return out;
}

TraceRun RunIdleReaper(double idle_swap_out_s) {
  constexpr const char* kModels[] = {
      "deepseek-r1-14b-fp16", "deepseek-r1-8b-fp16",
      "gemma-7b-fp16",        "deepseek-r1-7b-fp16",
      "deepseek-coder-6.7b-fp16", "llama-3.2-3b-fp16",
  };
  constexpr std::uint64_t kSeed = 0xab6;
  const double horizon = 4 * 3600.0;
  const std::vector<TraceEvent> trace = MakeTrace(
      kModels, workload::RequestProfile::ShortQa(), horizon, kSeed,
      [&](std::size_t i) {
        return std::make_unique<workload::MmppRate>(0.0008, 0.05, 2400, 300,
                                                    kSeed + i, horizon);
      });
  core::Config cfg = ConfigFor(kModels, model::EngineKind::kOllama);
  cfg.global.idle_swap_out_s = idle_swap_out_s;
  cfg.global.monitor_interval_s = 30;
  return ServeOnOneGpu(std::move(cfg), trace, sim::Minutes(15), horizon);
}

}  // namespace swapserve::bench
