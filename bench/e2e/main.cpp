// bench_e2e: end-to-end benchmark of the hot-swapping server.
//
//   bench_e2e --workload <name|file.json> --seed <n> [--reps 3] [--seconds 0]
//             [--trace 0|1] [--smoke]
//
// Untraced (--trace 0): fresh full reps (new Simulation, config, stack
// each) until at least --reps ran and --seconds of wall time passed; prints
// the end-to-end metrics. Traced (--trace 1, alias --traced): pairs of one
// untraced and one traced rep over the same budget; prints the per-layer
// metrics and writes the traced artefacts. --smoke divides the arrival
// window by 100 and runs one rep.
//
// Every output check that fails is named on stderr and makes the exit code
// nonzero. The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// `failed` counts requests the checks could not account for; requests the
// server answered with an error (shed, rejected, failed) are outcomes,
// measured by served_frac and slo_attainment.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "json/json.h"
#include "scenario.h"
#include "util/log.h"
#include "util/stats.h"

namespace swapserve::bench::e2e {
namespace {

using Clock = std::chrono::steady_clock;

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
  double bound;  // share of the baseline median a regression may cost
};

// Keep in sync with BENCHMARK.json at the repository root.
constexpr MetricDef kEndToEnd[] = {
    {"run_wall_s", "s", "lower", 0.25},
    {"setup_s", "s", "lower", 0.25},
    {"peak_rss_mib", "MiB", "lower", 0.15},
    {"ttft_p50_s", "sim_s", "lower", 0.25},
    {"ttft_p99_s", "sim_s", "lower", 0.15},
    {"slo_attainment", "fraction", "higher", 0.02},
    {"served_frac", "fraction", "higher", 0.002},
    {"gpu_mem_gib_mean", "GiB", "lower", 0.05},
};

constexpr MetricDef kPerLayer[] = {
    {"workload.gen_s", "s", "lower", 0},
    {"workload.requests", "count", "higher", 0},
    {"router.calls", "count", "higher", 0},
    {"router.call_us_p50", "us", "lower", 0},
    {"router.call_us_p99", "us", "lower", 0},
    {"router.wall_frac", "fraction", "lower", 0},
    {"router.shed_frac", "fraction", "lower", 0},
    {"router.reject_frac", "fraction", "lower", 0},
    {"cluster.accept_us_p50", "us", "lower", 0},
    {"cluster.accept_us_p99", "us", "lower", 0},
    {"cluster.wall_frac", "fraction", "lower", 0},
    {"cluster.fetches", "count", "lower", 0},
    {"cluster.fetched_gib", "GiB", "lower", 0},
    {"cluster.failovers", "count", "lower", 0},
    {"cluster.redispatched", "count", "higher", 0},
    {"cluster.redispatch_dropped", "count", "lower", 0},
    {"cluster.standby_promotions", "count", "higher", 0},
    {"cluster.repairs", "count", "higher", 0},
    {"cluster.node_crashes", "count", "lower", 0},
    {"cluster.migrations", "count", "lower", 0},
    {"queue.wait_p99_s", "sim_s", "lower", 0},
    {"worker.requeues", "count", "lower", 0},
    {"worker.stream_chunks", "count", "lower", 0},
    {"tm.reserve_wait_p99_s", "sim_s", "lower", 0},
    {"scheduler.preemptions", "count", "lower", 0},
    {"scheduler.swap_retries", "count", "lower", 0},
    {"ckpt.swap_ins", "count", "lower", 0},
    {"ckpt.swap_outs", "count", "lower", 0},
    {"ckpt.swap_overs", "count", "lower", 0},
    {"ckpt.swap_in_p50_s", "sim_s", "lower", 0},
    {"ckpt.swap_in_p99_s", "sim_s", "lower", 0},
    {"ckpt.swap_out_p99_s", "sim_s", "lower", 0},
    {"ckpt.swap_wait_frac", "fraction", "lower", 0},
    {"ckpt.resident_frac", "fraction", "higher", 0},
    {"tier.host_hit_frac", "fraction", "higher", 0},
    {"tier.promotions", "count", "lower", 0},
    {"tier.demotions", "count", "lower", 0},
    {"tier.prefetch_hits", "count", "higher", 0},
    {"hw.pcie_gib", "GiB", "lower", 0},
    {"hw.gpu_util_mean", "fraction", "higher", 0},
    {"engine.output_tokens", "count", "higher", 0},
    {"recovery.restarts", "count", "lower", 0},
    {"recovery.quarantines", "count", "lower", 0},
    {"sim.events", "count", "lower", 0},
    {"sim.events_per_req", "count", "lower", 0},
    {"sim.events_per_wall_s", "1/s", "higher", 0},
    {"sim.untimed_wall_frac", "fraction", "lower", 0},
    {"obs.trace_events", "count", "lower", 0},
    {"obs.trace_dropped", "count", "lower", 0},
    {"obs.overhead_frac", "fraction", "lower", 0},
    {"obs.export_s", "s", "lower", 0},
    {"obs.registry_series", "count", "lower", 0},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int reps = 3;
  double seconds = 0;
  bool traced = false;
  bool smoke = false;
};

// Results and traced artefacts (build/e2e/out when built by run.sh).
const std::string kOutDir = E2E_OUT_DIR;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload <name|file.json> "
               "--seed <n> "
               "[--reps n] [--seconds s] [--trace 0|1] [--smoke]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--reps") {
      a.reps = std::max(1, std::atoi(value().c_str()));
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      a.traced = value() == "1";
    } else if (flag == "--traced") {
      a.traced = true;
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else {
      Usage(("unknown argument " + flag).c_str());
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (a.smoke) a.reps = 1;
  return a;
}

double Median(const std::vector<double>& v) {
  if (v.empty()) return 0;
  Samples s;
  for (double x : v) s.Add(x);
  return s.Median();
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Simulated metrics must repeat bit-for-bit: tracing and wall time never
// feed the simulation.
void CheckDeterminism(const std::vector<RepResult>& reps,
                      std::vector<std::string>& violations) {
  for (std::size_t r = 1; r < reps.size(); ++r) {
    for (std::size_t i = 0; i < reps[0].sim.size(); ++i) {
      const Named& a = reps[0].sim[i];
      const Named& b = reps[r].sim[i];
      if (std::memcmp(&a.second, &b.second, sizeof(double)) != 0) {
        std::ostringstream why;
        why.precision(17);
        why << "determinism: " << a.first << " is " << a.second
            << " in rep 1 but " << b.second << " in rep " << r + 1;
        violations.push_back(why.str());
        return;
      }
    }
  }
}

struct Value {
  const MetricDef* def;
  double value;
  std::vector<double> per_rep;  // wall metrics: one value per rep
};

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void PrintTable(const char* title, const std::vector<Value>& values) {
  std::printf("\n%s\n", title);
  for (const Value& v : values) {
    std::printf("  %-28s %14s %-8s", v.def->name, Fmt(v.value).c_str(),
                v.def->unit);
    if (v.per_rep.size() > 1) {
      std::vector<double> sorted = v.per_rep;
      std::sort(sorted.begin(), sorted.end());
      std::printf("  [min %s, max %s over %zu reps]",
                  Fmt(sorted.front()).c_str(), Fmt(sorted.back()).c_str(),
                  sorted.size());
    }
    std::printf("\n");
  }
}

// Merge this run's section into <out>/<workload>.json, keeping the other
// mode's section, so one file per workload carries both.
void WriteResult(const Args& args, const std::string& workload,
                 const char* section, const std::vector<Value>& values,
                 std::size_t reps) {
  const std::string path = kOutDir + "/" + workload + ".json";
  json::Value doc = json::Value::MakeObject();
  if (std::ifstream in(path); in) {
    std::stringstream text;
    text << in.rdbuf();
    Result<json::Value> old = json::Parse(text.str());
    if (old.ok() && old->is_object() &&
        old->GetInt("seed", -1) == static_cast<std::int64_t>(args.seed)) {
      doc = std::move(*old);
    }
  }
  doc["workload"] = workload;
  doc["seed"] = static_cast<double>(args.seed);
  doc["smoke"] = args.smoke;
  json::Value list = json::Value::MakeArray();
  for (const Value& v : values) {
    json::Value m = json::Value::MakeObject();
    m["name"] = v.def->name;
    m["unit"] = v.def->unit;
    m["better"] = v.def->better;
    if (v.def->bound > 0) m["bound"] = v.def->bound;
    m["value"] = v.value;
    if (v.per_rep.size() > 1) {
      json::Value reps_json = json::Value::MakeArray();
      for (double x : v.per_rep) reps_json.PushBack(x);
      m["reps"] = std::move(reps_json);
    }
    list.PushBack(std::move(m));
  }
  doc[section] = std::move(list);
  doc[std::string(section) + "_reps"] = static_cast<double>(reps);
  std::ofstream(path) << doc.Pretty() << '\n';
}

void WriteWallTrace(const std::string& path, const RepResult& rep) {
  json::Value doc = json::Value::MakeObject();
  doc["displayTimeUnit"] = "ms";
  doc["traceEvents"] = json::Value::MakeArray();
  for (const PhaseSpan& p : rep.phases) {
    json::Value ev = json::Value::MakeObject();
    ev["name"] = p.name;
    ev["cat"] = "bench";
    ev["ph"] = "X";
    ev["ts"] = p.start_s * 1e6;
    ev["dur"] = (p.end_s - p.start_s) * 1e6;
    ev["pid"] = 1;
    ev["tid"] = 1;
    doc["traceEvents"].PushBack(std::move(ev));
  }
  std::ofstream(path) << doc.Dump() << '\n';
}

int Run(const Args& args) {
  Logger::Global().set_level(LogLevel::kError);
  // A workload is named (bench/e2e/workloads/<name>.json) or given as a
  // path to a variant file.
  const bool is_path = args.workload.size() > 5 &&
                       args.workload.ends_with(".json");
  Result<WorkloadSpec> spec = LoadWorkload(
      is_path ? args.workload
              : std::string(E2E_WORKLOAD_DIR) + "/" + args.workload + ".json");
  if (!spec.ok()) {
    std::fprintf(stderr, "bench_e2e: %s\n", spec.status().ToString().c_str());
    return 2;
  }
  std::error_code mkdir_error;
  std::filesystem::create_directories(kOutDir, mkdir_error);
  if (mkdir_error) {
    std::fprintf(stderr, "bench_e2e: cannot create %s: %s\n",
                 kOutDir.c_str(), mkdir_error.message().c_str());
    return 2;
  }

  RepOptions base;
  base.seed = args.seed;
  base.horizon_scale = args.smoke ? 0.01 : 1.0;
  base.out_dir = kOutDir;

  std::printf("bench_e2e: workload %s, seed %llu, %s%s\n",
              spec->name.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.traced ? "traced" : "untraced",
              args.smoke ? ", smoke" : "");
  std::vector<RepResult> untraced, traced, all;
  std::vector<std::string> violations;
  const Clock::time_point start = Clock::now();
  const auto elapsed = [start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  const auto run = [&](bool with_trace) -> bool {
    RepOptions options = base;
    options.traced = with_trace;
    // The first traced rep exports the artefacts; later reps only measure.
    if (!with_trace || !traced.empty()) options.out_dir.clear();
    RepResult rep = RunRep(*spec, options);
    // Hand the rep's freed heap back to the OS, so peak RSS measures one
    // rep's footprint instead of how fragmented earlier reps left the heap.
    malloc_trim(0);
    std::printf(
        "  rep %zu%s: setup %.3f s, run %.3f s, %llu sent, %.0f completed, "
        "%.0f events\n",
        all.size() + 1, with_trace ? " (traced)" : "", rep.setup_s,
        rep.run_wall_s, static_cast<unsigned long long>(rep.sent),
        rep.sim.empty() ? 0.0 : rep.Sim("completed"),
        rep.sim.empty() ? 0.0 : rep.Sim("sim.events"));
    std::fflush(stdout);
    for (const std::string& v : rep.violations) violations.push_back(v);
    (with_trace ? traced : untraced).push_back(rep);
    all.push_back(std::move(rep));
    return violations.empty();
  };
  bool ok = true;
  while (ok) {
    // A traced run needs one (untraced, traced) pair; more only while the
    // wall budget lasts.
    const bool enough =
        args.traced ? !traced.empty()
                    : untraced.size() >= static_cast<std::size_t>(args.reps);
    if (enough && elapsed() >= args.seconds) {
      break;
    }
    ok = run(false);
    if (ok && args.traced) ok = run(true);
  }
  if (ok) CheckDeterminism(all, violations);

  std::uint64_t attempted = 0, failed = 0;
  for (const RepResult& r : all) {
    attempted += r.sent;
    failed += r.unaccounted;
  }
  const bool correct = violations.empty();
  for (const std::string& v : violations) {
    std::fprintf(stderr, "CHECK FAILED %s\n", v.c_str());
  }

  std::vector<Value> values;
  if (correct) {
    const auto each = [](const std::vector<RepResult>& reps, auto get) {
      std::vector<double> v;
      for (const RepResult& r : reps) v.push_back(get(r));
      return v;
    };
    // Wall-clock metrics; every other metric is the simulated value, the
    // same in every rep.
    std::map<std::string, std::vector<double>> wall;
    const RepResult& sim = args.traced ? traced.front() : untraced.front();
    if (!args.traced) {
      wall["run_wall_s"] =
          each(untraced, [](const RepResult& r) { return r.run_wall_s; });
      wall["setup_s"] =
          each(untraced, [](const RepResult& r) { return r.setup_s; });
      wall["peak_rss_mib"] = {PeakRssMib()};
      std::printf("\nTTFT samples: %.0f of %.0f requests sent\n",
                  sim.Sim("ttft_samples"), sim.Sim("sent"));
    } else {
      // Timed calls go through the router (chat-stream) or the cluster
      // (fleet-diurnal); the other entry is reported as 0.
      Samples calls;
      for (const RepResult& r : traced) {
        for (float c : r.call_us) calls.Add(c);
      }
      const std::string timed = sim.Sim("router.calls") > 0 ? "router"
                                : calls.empty()             ? ""
                                                            : "cluster";
      const std::vector<double> call_frac =
          each(traced, [](const RepResult& r) {
            return r.run_wall_s > 0 ? r.call_wall_s / r.run_wall_s : 0;
          });
      const double frac = Median(call_frac);
      for (const auto& [layer, call] :
           {std::pair{"router", "router.call_us_"},
            std::pair{"cluster", "cluster.accept_us_"}}) {
        const bool on = timed == layer;
        wall[std::string(call) + "p50"] = {on ? calls.Median() : 0};
        wall[std::string(call) + "p99"] = {on ? calls.P99() : 0};
        wall[std::string(layer) + ".wall_frac"] = {on ? frac : 0};
      }
      std::vector<double> overhead;
      for (std::size_t i = 0; i < traced.size(); ++i) {
        overhead.push_back(traced[i].run_wall_s / untraced[i].run_wall_s - 1);
      }
      wall["workload.gen_s"] =
          each(all, [](const RepResult& r) { return r.gen_s; });
      wall["sim.events_per_wall_s"] = each(untraced, [](const RepResult& r) {
        return r.Sim("sim.events") / r.run_wall_s;
      });
      wall["sim.untimed_wall_frac"] = {1.0 - frac};
      wall["obs.trace_events"] = {sim.trace_events};
      wall["obs.trace_dropped"] = {sim.trace_dropped};
      wall["obs.overhead_frac"] = overhead;
      wall["obs.export_s"] = {traced.front().export_s};
      WriteWallTrace(kOutDir + "/" + spec->name + ".wall_trace.json",
                     traced.back());
    }
    const std::span<const MetricDef> defs =
        args.traced ? std::span<const MetricDef>(kPerLayer)
                    : std::span<const MetricDef>(kEndToEnd);
    for (const MetricDef& def : defs) {
      auto it = wall.find(def.name);
      if (it == wall.end()) {
        values.push_back({&def, sim.Sim(def.name), {}});
      } else {
        values.push_back({&def, Median(it->second), it->second});
      }
    }
    PrintTable(args.traced
                   ? "Per-layer metrics (traced run; *_p99_s read from "
                     "registry histograms report the bucket upper bound)"
                   : "End-to-end metrics (wall: median of reps; sim: per "
                     "seed, identical in every rep)",
               values);
    WriteResult(args, spec->name, args.traced ? "per_layer" : "end_to_end",
                values, all.size());
  }

  json::Value metrics = json::Value::MakeObject();
  for (const Value& v : values) {
    json::Value m = json::Value::MakeObject();
    m["value"] = v.value;
    m["unit"] = v.def->unit;
    metrics[v.def->name] = std::move(m);
  }
  json::Value line = json::Value::MakeObject();
  line["correct"] = correct;
  line["attempted"] =
      static_cast<double>(std::max<std::uint64_t>(1, attempted));
  line["failed"] = static_cast<double>(failed);
  line["metrics"] = std::move(metrics);
  std::printf("%s\n", line.Dump().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace swapserve::bench::e2e

int main(int argc, char** argv) {
  namespace e2e = swapserve::bench::e2e;
  return e2e::Run(e2e::ParseArgs(argc, argv));
}
