// Recovery-latency and goodput ablation for the self-healing control
// plane: the same alternating two-model workload (every request pays a
// swap-in) at several injected restore-failure + engine-crash rates,
// compared against the fault-free run.
//
// Not a paper figure: the paper assumes reliable checkpoint transport;
// this bench quantifies what the retry/requeue/breaker stack costs when
// that assumption breaks. A crashed engine is restored by the next request
// for it, behind the scheduler's reservation. Emits
// bench_fault_recovery.json.

#include <cstdio>
#include <fstream>
#include <string>

#include "bench/common.h"
#include "fault/fault_injector.h"
#include "json/json.h"
#include "sim/random.h"

namespace swapserve::bench {
namespace {

// Two models that cannot coexist on the 80 GB device, so alternating
// requests force an eviction + restore each time — every request rolls
// the fault dice at ckpt.swap_in, and each service rolls engine.crash.
constexpr const char* kModelA = "llama-3.3-70b-fp8";
constexpr const char* kModelB = "deepseek-r1-14b-fp16";
constexpr int kRequests = 100;

constexpr double kFaultRates[] = {0.0, 0.02, 0.05, 0.10};

struct Measurement {
  double fault_rate = 0;
  double goodput_rps = 0;  // completed / makespan
  double p50_s = 0;
  double p99_s = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t swap_ins = 0;
  std::uint64_t swap_retries = 0;
  std::uint64_t requeues = 0;
  std::uint64_t recoveries = 0;
  double recovery_p50_s = 0;
};

Measurement Measure(double fault_rate) {
  Bed bed(Machine::kH100);
  core::Config cfg;
  for (const char* id : {kModelA, kModelB}) {
    core::ModelEntry entry;
    entry.model_id = id;
    entry.engine = "ollama";
    cfg.models.push_back(entry);
  }
  cfg.fault.seed = 42;
  core::SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());

  Measurement m;
  m.fault_rate = fault_rate;
  Samples latency;
  double makespan_s = 0;
  bed.RunTask([&]() -> sim::Task<> {
    SWAP_CHECK((co_await serve.Initialize()).ok());
    if (fault_rate > 0) {
      fault::FaultPlan plan;
      fault::FaultRule restore;
      restore.point = "ckpt.swap_in";
      restore.probability = fault_rate;
      plan.rules.push_back(restore);
      fault::FaultRule crash;
      crash.point = "engine.crash";
      crash.probability = fault_rate / 2;  // crashes are rarer than I/O hiccups
      plan.rules.push_back(crash);
      serve.fault_injector().Configure(std::move(plan));
    }
    sim::Rng rng(7);
    const sim::SimTime start = bed.sim.Now();
    for (int i = 0; i < kRequests; ++i) {
      co_await bed.sim.Delay(sim::Seconds(rng.Exponential(0.5)));
      core::ChatResult r = co_await serve.ChatAndWait(
          i % 2 == 0 ? kModelA : kModelB, 256, 64);
      if (r.ok) latency.Add(r.total_s);
    }
    makespan_s = (bed.sim.Now() - start).ToSeconds();
    serve.Shutdown();
  });

  const core::Metrics& metrics = serve.metrics();
  m.completed = metrics.TotalCompleted();
  m.failed = metrics.TotalFailed();
  m.goodput_rps = makespan_s > 0 ? static_cast<double>(m.completed) / makespan_s
                                 : 0;
  m.p50_s = latency.Median();
  m.p99_s = latency.P99();
  m.faults_injected = serve.fault_injector().total_fires();
  m.swap_ins = metrics.swap_ins;
  m.swap_retries = metrics.swap_retries;
  m.requeues = metrics.requeues;
  m.recoveries = metrics.recoveries;
  m.recovery_p50_s = metrics.recovery_latency_s.Median();
  return m;
}

void Run() {
  PrintHeader(
      "Ablation: goodput and tail latency vs injected fault rate (H100)",
      "Alternating two-model workload where every request pays a swap-in.\n"
      "Faults: restore failures at the given rate plus engine crashes at\n"
      "half that rate; the retry/requeue stack absorbs them, and the next\n"
      "request for a crashed engine restores it behind a reservation.");
  // Retries and recoveries log at WARN by design; a fault-rate sweep would
  // drown the table in expected noise.
  Logger::Global().set_level(LogLevel::kError);

  TablePrinter table({"Fault rate", "Completed", "Failed", "Goodput (req/s)",
                      "p50 (s)", "p99 (s)", "Retries", "Requeues",
                      "Recoveries"});
  json::Value rows = json::Value::MakeArray();
  Measurement clean;
  bool acceptable = true;

  for (double rate : kFaultRates) {
    const Measurement m = Measure(rate);
    if (rate == 0.0) {
      clean = m;
      SWAP_CHECK_MSG(m.faults_injected == 0 && m.swap_retries == 0 &&
                         m.recoveries == 0,
                     "fault-free run recorded recovery activity");
    }
    if (m.failed != 0) acceptable = false;
    table.AddRow({TablePrinter::Num(rate * 100, 0) + "%",
                  std::to_string(m.completed), std::to_string(m.failed),
                  TablePrinter::Num(m.goodput_rps),
                  TablePrinter::Num(m.p50_s), TablePrinter::Num(m.p99_s),
                  std::to_string(m.swap_retries), std::to_string(m.requeues),
                  std::to_string(m.recoveries)});

    json::Value row = json::Value::MakeObject();
    row["fault_rate"] = rate;
    row["completed"] = static_cast<double>(m.completed);
    row["failed"] = static_cast<double>(m.failed);
    row["goodput_rps"] = m.goodput_rps;
    row["p50_s"] = m.p50_s;
    row["p99_s"] = m.p99_s;
    row["faults_injected"] = static_cast<double>(m.faults_injected);
    row["swap_ins"] = static_cast<double>(m.swap_ins);
    row["swap_retries"] = static_cast<double>(m.swap_retries);
    row["requeues"] = static_cast<double>(m.requeues);
    row["recoveries"] = static_cast<double>(m.recoveries);
    row["recovery_p50_s"] = m.recovery_p50_s;
    rows.PushBack(std::move(row));
  }
  std::printf("%s", table.ToString().c_str());

  const char* json_path = "bench_fault_recovery.json";
  {
    json::Value doc = json::Value::MakeObject();
    doc["bench"] = "fault_recovery";
    doc["machine"] = "h100";
    doc["requests"] = static_cast<double>(kRequests);
    doc["rows"] = std::move(rows);
    std::ofstream os(json_path);
    os << doc.Pretty() << '\n';
  }
  std::printf(
      "\nHeadline: recovery keeps every request terminal at up to 10%%\n"
      "restore-failure rate; the cost shows up as tail latency, not lost\n"
      "requests.\n"
      "\nArtifacts:\n  %s  (per-rate goodput/latency/recovery counters)\n",
      json_path);
  SWAP_CHECK_MSG(acceptable, "requests were lost under injected faults");
}

}  // namespace
}  // namespace swapserve::bench

int main() {
  swapserve::bench::Run();
  return 0;
}
