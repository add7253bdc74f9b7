#include "scenario.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "cluster/cluster.h"
#include "core/config.h"
#include "fault/fault_injector.h"
#include "model/catalog.h"
#include "obs/exporters.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "util/stats.h"
#include "workload/arrival.h"
#include "workload/request_gen.h"
#include "workload/trace.h"

namespace swapserve::bench::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Deterministic per-purpose seed derived from the run's --seed.
std::uint64_t DeriveSeed(std::uint64_t seed, const std::string& purpose) {
  return fault::StableHashCombine(seed, fault::StableHash(purpose));
}

Result<workload::RequestProfile> ProfileNamed(const std::string& name) {
  if (name == "short_qa") return workload::RequestProfile::ShortQa();
  if (name == "conversational") {
    return workload::RequestProfile::Conversational();
  }
  return InvalidArgument("bench.profile: unknown profile \"" + name + "\"");
}

// --- inputs ----------------------------------------------------------------

struct Inputs {
  std::vector<workload::TraceEvent> trace;
  // Router entry only: per-model pools of rendered chat bodies, and the
  // body each trace event sends.
  std::vector<std::vector<std::string>> pools;
  std::vector<const std::string*> body;
};

// Per-model share of the total rate: explicit "weights", Zipf(s)
// popularity over the config's model order, or uniform.
std::vector<double> Shares(const json::Value& arrivals, std::size_t models) {
  std::vector<double> w(models, 1.0);
  if (const json::Value* weights = arrivals.Find("weights");
      weights != nullptr && weights->is_array()) {
    for (std::size_t i = 0; i < models && i < weights->AsArray().size(); ++i) {
      w[i] = weights->AsArray()[i].AsDouble();
    }
  } else if (const double s = arrivals.GetDouble("zipf_s", 0); s > 0) {
    for (std::size_t i = 0; i < models; ++i) {
      w[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
    }
  }
  double total = 0;
  for (double x : w) total += x;
  for (double& x : w) x /= total;
  return w;
}

// Filler prose for chat bodies; the router's token estimate counts
// characters, so only the length matters.
constexpr const char* kWords[] = {
    "model",  "swap",   "memory", "latency", "token",  "request",
    "engine", "cache",  "batch",  "queue",   "prompt", "serve",
    "weight", "kernel", "host",   "device",  "stream", "budget",
};

std::string RenderBody(const std::string& model, std::int64_t prompt_tokens,
                       std::int64_t max_tokens, int tenant, sim::Rng& rng) {
  static const std::string kSystem = "You are a helpful assistant.";
  // The router estimates chars / 4 + 4 per message.
  const std::int64_t want_chars = std::max<std::int64_t>(
      8, 4 * (prompt_tokens - 8) - static_cast<std::int64_t>(kSystem.size()));
  std::string text;
  text.reserve(static_cast<std::size_t>(want_chars) + 16);
  while (static_cast<std::int64_t>(text.size()) < want_chars) {
    if (!text.empty()) text += ' ';
    text += kWords[rng.UniformInt(0, std::size(kWords) - 1)];
  }
  text.resize(static_cast<std::size_t>(want_chars));

  json::Value system = json::Value::MakeObject();
  system["role"] = "system";
  system["content"] = kSystem;
  json::Value user = json::Value::MakeObject();
  user["role"] = "user";
  user["content"] = std::move(text);
  json::Value body = json::Value::MakeObject();
  body["model"] = model;
  body["messages"] = json::Value::MakeArray();
  body["messages"].PushBack(std::move(system));
  body["messages"].PushBack(std::move(user));
  body["max_tokens"] = max_tokens;
  body["stream"] = true;
  body["user"] = "tenant-" + std::to_string(tenant);
  return body.Dump();
}

Result<Inputs> GenerateInputs(const WorkloadSpec& spec,
                              const core::Config& config, std::uint64_t seed,
                              double horizon_s) {
  SWAP_ASSIGN_OR_RETURN(workload::RequestProfile profile,
                        ProfileNamed(spec.bench.GetString("profile", "")));
  const json::Value* arrivals = spec.bench.Find("arrivals");
  if (arrivals == nullptr || !arrivals->is_object()) {
    return InvalidArgument(spec.name + ": missing bench.arrivals");
  }
  const std::string process = arrivals->GetString("process", "");
  const std::vector<double> share = Shares(*arrivals, config.models.size());

  std::vector<std::unique_ptr<workload::RateCurve>> rates;
  std::vector<workload::ModelWorkload> mix;
  for (std::size_t i = 0; i < config.models.size(); ++i) {
    const std::string& model = config.models[i].model_id;
    const double rps = arrivals->GetDouble("rate_rps", 0) * share[i];
    if (process == "poisson") {
      rates.push_back(std::make_unique<workload::ConstantRate>(rps));
    } else if (process == "diurnal") {
      rates.push_back(std::make_unique<workload::DiurnalRate>(
          workload::DiurnalRate::ConversationalPreset(rps)));
    } else if (process == "mmpp") {
      // Per model: quiet/burst rates and mean dwell times, not a share.
      rates.push_back(std::make_unique<workload::MmppRate>(
          arrivals->GetDouble("quiet_rps", 0),
          arrivals->GetDouble("burst_rps", 0),
          arrivals->GetDouble("mean_quiet_s", 0),
          arrivals->GetDouble("mean_burst_s", 0),
          DeriveSeed(seed, "mmpp." + model), horizon_s));
    } else {
      return InvalidArgument(spec.name + ": unknown arrival process \"" +
                             process + "\"");
    }
    mix.push_back({model, rates.back().get(), &profile});
  }

  Inputs inputs;
  inputs.trace =
      workload::GenerateTrace(mix, horizon_s, DeriveSeed(seed, "trace"));
  if (spec.entry != Entry::kRouter) return inputs;

  // A pool of rendered bodies per model; each arrival sends one drawn at
  // random. The pool must be large: its length mix is every request's
  // length mix, so a small pool makes TTFT swing from seed to seed.
  const json::Value* bodies = spec.bench.Find("bodies");
  if (bodies == nullptr || bodies->GetInt("pool", 0) < 1) {
    return InvalidArgument(spec.name + ": router entry needs bench.bodies");
  }
  const int pool = static_cast<int>(bodies->GetInt("pool", 0));
  const int tenants = static_cast<int>(std::max<std::int64_t>(
      1, bodies->GetInt("tenants", 1)));
  sim::Rng rng(DeriveSeed(seed, "bodies"));
  std::map<std::string, std::size_t> pool_of;
  inputs.pools.resize(config.models.size());
  for (std::size_t m = 0; m < config.models.size(); ++m) {
    const std::string& id = config.models[m].model_id;
    pool_of[id] = m;
    for (int j = 0; j < pool; ++j) {
      const workload::TokenSample t = profile.Sample(rng);
      inputs.pools[m].push_back(
          RenderBody(id, t.prompt_tokens, t.output_tokens, j % tenants, rng));
    }
  }
  inputs.body.reserve(inputs.trace.size());
  for (const workload::TraceEvent& ev : inputs.trace) {
    const std::vector<std::string>& p = inputs.pools[pool_of[ev.model_id]];
    inputs.body.push_back(&p[rng.UniformInt(0, pool - 1)]);
  }
  return inputs;
}

// --- driving the fleet -----------------------------------------------------

// What the driver saw; read once Simulation::Run() has returned.
struct DriveLog {
  Status init = Status::Ok();
  Clock::time_point init_done{};
  Clock::time_point arrivals_done{};
  sim::SimTime window_start{};
  std::uint64_t events_at_start = 0;
  std::vector<float> call_us;  // timed ChatCompletions / Accept calls
  double call_wall_s = 0;
  std::uint64_t opened = 0;       // response channels / conversations
  std::uint64_t ended = 0;
  std::uint64_t done = 0;         // ended with a done chunk
  std::uint64_t no_terminal = 0;  // closed with neither done nor error
};

// Replays the schedule open-loop through one entry point and records how
// every response channel ended.
class Driver {
 public:
  Driver(const WorkloadSpec& spec, const Inputs& inputs, double horizon_s,
         sim::Simulation& sim, cluster::ClusterServe& fleet, bool time_calls)
      : spec_(spec),
        inputs_(inputs),
        horizon_s_(horizon_s),
        sim_(sim),
        fleet_(fleet),
        time_calls_(time_calls) {
    if (time_calls_) log_.call_us.reserve(inputs_.trace.size());
  }

  const DriveLog& log() const { return log_; }

  sim::Task<> Drive() {
    log_.init = co_await fleet_.Initialize();
    log_.init_done = Clock::now();
    if (!log_.init.ok()) {
      fleet_.Shutdown();
      co_return;
    }
    log_.window_start = sim_.Now();
    log_.events_at_start = sim_.processed_events();
    for (std::size_t i = 0; i < inputs_.trace.size(); ++i) {
      co_await sim_.WaitUntil(log_.window_start +
                              sim::Seconds(inputs_.trace[i].time_s));
      Submit(i);
    }
    log_.arrivals_done = Clock::now();
    // Drain for at most a simulated hour: a request that never ends must
    // not hang the run; the terminal check reports it instead.
    const sim::SimTime deadline = log_.window_start +
                                  sim::Seconds(horizon_s_) + sim::Hours(1);
    while (log_.opened > log_.ended && sim_.Now() < deadline) {
      co_await sim_.Delay(sim::Seconds(1));
    }
    fleet_.Shutdown();
  }

 private:
  void Submit(std::size_t i) {
    const workload::TraceEvent& ev = inputs_.trace[i];
    if (spec_.entry == Entry::kServe) {
      ++log_.opened;
      sim::Spawn([this, i]() -> sim::Task<> {
        const workload::TraceEvent& e = inputs_.trace[i];
        core::ChatResult r = co_await fleet_.node(0).serve().ChatAndWait(
            e.model_id, e.prompt_tokens, e.output_tokens);
        // ChatAndWait reports a channel closed without a terminal chunk as
        // a failure with no error text.
        End(r.ok, r.ok || !r.error.empty());
      });
      return;
    }
    core::InferenceRequest request;
    if (spec_.entry == Entry::kCluster) {
      request.model = ev.model_id;
      request.prompt_tokens = ev.prompt_tokens;
      request.max_tokens = ev.output_tokens;
    }
    Clock::time_point t0;
    if (time_calls_) t0 = Clock::now();
    Result<core::ResponseChannelPtr> channel =
        spec_.entry == Entry::kRouter
            ? fleet_.node(0).serve().router().ChatCompletions(*inputs_.body[i])
            : fleet_.Accept(std::move(request));
    if (time_calls_) {
      const double s = SecondsBetween(t0, Clock::now());
      log_.call_us.push_back(static_cast<float>(s * 1e6));
      log_.call_wall_s += s;
    }
    // A refused request (shed, queue full) is in the server's ledger.
    if (!channel.ok()) return;
    ++log_.opened;
    sim::Spawn(Consume(std::move(*channel)));
  }

  sim::Task<> Consume(core::ResponseChannelPtr channel) {
    bool done = false;
    bool terminal = false;
    while (std::optional<core::ResponseChunk> chunk =
               co_await channel->Recv()) {
      if (chunk->kind == core::ResponseChunk::Kind::kDone ||
          chunk->kind == core::ResponseChunk::Kind::kError) {
        terminal = true;
        done = chunk->kind == core::ResponseChunk::Kind::kDone;
      }
    }
    End(done, terminal);
  }

  void End(bool done, bool terminal) {
    ++log_.ended;
    if (done) ++log_.done;
    if (!terminal) ++log_.no_terminal;
  }

  const WorkloadSpec& spec_;
  const Inputs& inputs_;
  const double horizon_s_;
  sim::Simulation& sim_;
  cluster::ClusterServe& fleet_;
  const bool time_calls_;
  DriveLog log_;
};

// --- reading the fleet -----------------------------------------------------

// Quantile of the merged registry histogram `name` across every series of
// every node: the upper bound of the bucket holding the q-th sample.
double HistogramQuantile(cluster::ClusterServe& fleet, const std::string& name,
                         double q) {
  std::vector<double> bounds;
  std::vector<std::uint64_t> cumulative;
  std::uint64_t count = 0;
  for (int n = 0; n < fleet.nodes(); ++n) {
    const auto& families = fleet.node(n).serve().obs().metrics.families();
    auto it = families.find(name);
    if (it == families.end()) continue;
    for (const auto& [key, series] : it->second.series) {
      const obs::HistogramMetric& h = *series.histogram;
      if (bounds.empty()) {
        bounds = h.upper_bounds();
        cumulative.assign(bounds.size(), 0);
      }
      for (std::size_t i = 0; i < bounds.size(); ++i) {
        cumulative[i] += h.CumulativeCount(i);
      }
      count += h.count();
    }
  }
  if (count == 0) return 0;
  const double rank = q * static_cast<double>(count);
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (static_cast<double>(cumulative[i]) >= rank) return bounds[i];
  }
  return bounds.back();  // the +Inf bucket: report the last finite bound
}

double CounterSum(cluster::ClusterServe& fleet, const std::string& name) {
  double total = 0;
  for (int n = 0; n < fleet.nodes(); ++n) {
    const auto& families = fleet.node(n).serve().obs().metrics.families();
    auto it = families.find(name);
    if (it == families.end()) continue;
    for (const auto& [key, series] : it->second.series) {
      total += series.counter->value();
    }
  }
  return total;
}

// Where every sent request ended up, by the server's own counters.
struct Ledger {
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  std::uint64_t dropped = 0;  // redispatch_dropped
  std::uint64_t Total() const {
    return completed + failed + rejected + shed + expired + dropped;
  }
};

Ledger LedgerOf(cluster::ClusterServe& fleet) {
  Ledger l;
  for (int n = 0; n < fleet.nodes(); ++n) {
    const core::Metrics& m = fleet.node(n).serve().metrics();
    l.completed += m.TotalCompleted();
    l.failed += m.TotalFailed();
    l.rejected += m.TotalRejected();
    l.shed += m.TotalShed();
    l.expired += m.TotalExpired();
  }
  l.dropped = fleet.redispatch_dropped();
  return l;
}

// The output checks; each failure is one "check: why" line.
void CheckOutputs(std::uint64_t sent, const Ledger& l, const DriveLog& log,
                  RepResult& out) {
  if (l.Total() != sent || log.done != l.completed) {
    out.violations.push_back(
        "conservation: sent " + std::to_string(sent) + " != completed " +
        std::to_string(l.completed) + " + failed " + std::to_string(l.failed) +
        " + rejected " + std::to_string(l.rejected) + " + shed " +
        std::to_string(l.shed) + " + expired " + std::to_string(l.expired) +
        " + redispatch_dropped " + std::to_string(l.dropped) +
        " (clients saw " + std::to_string(log.done) + " completions)");
    out.unaccounted += l.Total() > sent ? l.Total() - sent : sent - l.Total();
  }
  if (log.ended != log.opened || log.no_terminal != 0) {
    out.violations.push_back(
        "terminal: " + std::to_string(log.opened - log.ended) + " of " +
        std::to_string(log.opened) + " response channels never ended, " +
        std::to_string(log.no_terminal) +
        " closed without a done or error chunk");
    out.unaccounted += log.opened - log.ended + log.no_terminal;
  }
}

// Every simulated metric, in a fixed order. `window` is the arrival window
// in simulated seconds.
std::vector<Named> SimMetrics(const WorkloadSpec& spec,
                              cluster::ClusterServe& fleet,
                              const Ledger& ledger, std::uint64_t sent,
                              double events, double t0, double t1) {
  Samples ttft, swap_in, swap_out;
  double ttft_sum = 0, swap_wait_sum = 0, within_limit = 0;
  double resident = 0, after_swap = 0;
  double swap_ins = 0, swap_outs = 0, swap_overs = 0, preemptions = 0,
         swap_retries = 0, requeues = 0, recoveries = 0, quarantines = 0,
         output_tokens = 0;
  double promotions = 0, demotions = 0, host_hits = 0, nvme_misses = 0,
         prefetch_hits = 0, node_crashes = 0, registry_series = 0;
  double pcie_gib = 0, mem_sum = 0, util_sum = 0, gpus = 0;
  for (int n = 0; n < fleet.nodes(); ++n) {
    core::SwapServe& serve = fleet.node(n).serve();
    const core::Metrics& m = serve.metrics();
    for (const auto& [model, mm] : m.per_model()) {
      for (double v : mm.ttft_s.values()) {
        ttft.Add(v);
        ttft_sum += v;
        if (v <= spec.ttft_limit_s) ++within_limit;
      }
      for (double v : mm.swap_wait_s.values()) swap_wait_sum += v;
      resident += static_cast<double>(mm.served_resident);
      after_swap += static_cast<double>(mm.served_after_swap_in);
    }
    for (double v : m.swap_in_latency_s.values()) swap_in.Add(v);
    for (double v : m.swap_out_latency_s.values()) swap_out.Add(v);
    swap_ins += static_cast<double>(m.swap_ins);
    swap_outs += static_cast<double>(m.swap_outs);
    swap_overs += static_cast<double>(m.swap_overs);
    preemptions += static_cast<double>(m.preemptions);
    swap_retries += static_cast<double>(m.swap_retries);
    requeues += static_cast<double>(m.requeues);
    recoveries += static_cast<double>(m.recoveries);
    quarantines += static_cast<double>(m.quarantines);
    output_tokens += static_cast<double>(m.TotalOutputTokens());
    if (const ckpt::SnapshotTierManager* tier = serve.tier_manager()) {
      promotions += static_cast<double>(tier->promotions());
      demotions += static_cast<double>(tier->demotions());
      host_hits += static_cast<double>(tier->host_hits());
      nvme_misses += static_cast<double>(tier->nvme_misses());
      prefetch_hits += static_cast<double>(tier->prefetch_hits());
    }
    node_crashes += static_cast<double>(fleet.node(n).crashes());
    registry_series += static_cast<double>(serve.obs().metrics.series_count());
    for (const auto& gpu : fleet.node(n).gpus()) {
      pcie_gib += (gpu->pcie().h2d().total_transferred() +
                   gpu->pcie().d2h().total_transferred())
                      .AsGiB();
    }
    for (std::size_t g = 0; g < serve.monitor().gpu_count(); ++g) {
      mem_sum += serve.monitor().MemorySeries(g).TimeWeightedMean(t0, t1);
      util_sum += serve.monitor().UtilizationSeries(g).TimeWeightedMean(t0, t1);
      ++gpus;
    }
  }
  const cluster::SnapshotReplicator* replicator = fleet.replicator();
  const cluster::ReplicationRepairer* repairer = fleet.repairer();
  const double sent_d = static_cast<double>(sent);
  const bool router = spec.entry == Entry::kRouter;
  const double router_calls = router ? sent_d : 0;
  return {
      {"sent", sent_d},
      {"completed", static_cast<double>(ledger.completed)},
      {"ttft_samples", static_cast<double>(ttft.count())},
      {"ttft_p50_s", ttft.empty() ? 0 : ttft.Median()},
      {"ttft_p99_s", ttft.empty() ? 0 : ttft.P99()},
      {"slo_attainment", Ratio(within_limit, sent_d)},
      {"served_frac", Ratio(static_cast<double>(ledger.completed), sent_d)},
      {"gpu_mem_gib_mean", Ratio(mem_sum, gpus)},
      {"workload.requests", sent_d},
      {"router.calls", router_calls},
      {"router.shed_frac",
       Ratio(router ? static_cast<double>(ledger.shed) : 0, router_calls)},
      {"router.reject_frac",
       Ratio(router ? static_cast<double>(ledger.rejected) : 0, router_calls)},
      {"cluster.fetches",
       replicator ? static_cast<double>(replicator->fetches()) : 0},
      {"cluster.fetched_gib",
       replicator ? replicator->fetched_bytes().AsGiB() : 0},
      {"cluster.failovers", static_cast<double>(fleet.failovers())},
      {"cluster.redispatched", static_cast<double>(fleet.redispatched())},
      {"cluster.redispatch_dropped", static_cast<double>(ledger.dropped)},
      {"cluster.standby_promotions",
       static_cast<double>(fleet.standby_promotions())},
      {"cluster.repairs",
       repairer ? static_cast<double>(repairer->completed()) : 0},
      {"cluster.node_crashes", node_crashes},
      {"cluster.migrations", static_cast<double>(fleet.migrations())},
      {"queue.wait_p99_s",
       HistogramQuantile(fleet, "swapserve_queue_wait_seconds", 0.99)},
      {"worker.requeues", requeues},
      {"worker.stream_chunks",
       CounterSum(fleet, "swapserve_stream_chunks_total")},
      {"tm.reserve_wait_p99_s",
       HistogramQuantile(fleet, "swapserve_reservation_wait_seconds", 0.99)},
      {"scheduler.preemptions", preemptions},
      {"scheduler.swap_retries", swap_retries},
      {"ckpt.swap_ins", swap_ins},
      {"ckpt.swap_outs", swap_outs},
      {"ckpt.swap_overs", swap_overs},
      {"ckpt.swap_in_p50_s", swap_in.empty() ? 0 : swap_in.Median()},
      {"ckpt.swap_in_p99_s", swap_in.empty() ? 0 : swap_in.P99()},
      {"ckpt.swap_out_p99_s", swap_out.empty() ? 0 : swap_out.P99()},
      {"ckpt.swap_wait_frac", Ratio(swap_wait_sum, ttft_sum)},
      {"ckpt.resident_frac", Ratio(resident, resident + after_swap)},
      {"tier.host_hit_frac", Ratio(host_hits, host_hits + nvme_misses)},
      {"tier.promotions", promotions},
      {"tier.demotions", demotions},
      {"tier.prefetch_hits", prefetch_hits},
      {"hw.pcie_gib", pcie_gib},
      {"hw.gpu_util_mean", Ratio(util_sum, gpus)},
      {"engine.output_tokens", output_tokens},
      {"recovery.restarts", recoveries},
      {"recovery.quarantines", quarantines},
      {"sim.events", events},
      {"sim.events_per_req", Ratio(events, sent_d)},
      {"obs.registry_series", registry_series},
  };
}

// Writes the traced rep's simulator artefacts: every node's trace ring as
// one Chrome trace (node i as pid i + 1) and every node's registry as
// Prometheus text.
void ExportTraced(cluster::ClusterServe& fleet, const std::string& prefix) {
  json::Value merged = json::Value::MakeObject();
  merged["displayTimeUnit"] = "ms";
  merged["traceEvents"] = json::Value::MakeArray();
  for (int n = 0; n < fleet.nodes(); ++n) {
    json::Value doc = obs::TraceToChromeJson(fleet.node(n).serve().obs().trace);
    for (json::Value& ev : doc["traceEvents"].AsArray()) {
      ev["pid"] = n + 1;
      merged["traceEvents"].PushBack(std::move(ev));
    }
  }
  std::ofstream(prefix + ".sim_trace.json") << merged.Dump() << '\n';
  std::ofstream prom(prefix + ".metrics.prom");
  for (int n = 0; n < fleet.nodes(); ++n) {
    prom << "# node" << n << '\n';
    obs::WritePrometheusText(fleet.node(n).serve().obs().metrics, prom);
  }
}

}  // namespace

Result<WorkloadSpec> LoadWorkload(const std::string& path) {
  std::ifstream in(path);
  if (!in) return NotFound("cannot read workload file " + path);
  std::stringstream text;
  text << in.rdbuf();
  WorkloadSpec spec;
  spec.config_text = text.str();
  SWAP_ASSIGN_OR_RETURN(json::Value doc, json::Parse(spec.config_text));
  const json::Value* bench = doc.Find("bench");
  if (bench == nullptr || !bench->is_object()) {
    return InvalidArgument(path + ": missing \"bench\" object");
  }
  spec.bench = *bench;
  spec.name = bench->GetString("name", "");
  const std::string entry = bench->GetString("entry", "");
  if (entry == "router") {
    spec.entry = Entry::kRouter;
  } else if (entry == "serve") {
    spec.entry = Entry::kServe;
  } else if (entry == "cluster") {
    spec.entry = Entry::kCluster;
  } else {
    return InvalidArgument(path +
                           ": bench.entry must be router, serve or cluster");
  }
  spec.ttft_limit_s = bench->GetDouble("ttft_limit_s", 0);
  spec.horizon_s = bench->GetDouble("horizon_s", 0);
  if (spec.name.empty() || spec.ttft_limit_s <= 0 || spec.horizon_s <= 0) {
    return InvalidArgument(path + ": bench.name, bench.ttft_limit_s and "
                                  "bench.horizon_s are required");
  }
  return spec;
}

double RepResult::Sim(const std::string& name) const {
  for (const Named& n : sim) {
    if (n.first == name) return n.second;
  }
  SWAP_CHECK_MSG(false, "no simulated metric " + name);
  return 0;
}

RepResult RunRep(const WorkloadSpec& spec, const RepOptions& options) {
  RepResult out;
  const Clock::time_point rep_start = Clock::now();
  Clock::time_point mark = rep_start;
  const auto phase = [&out, &mark, rep_start](const char* name,
                                              Clock::time_point end) {
    out.phases.push_back(PhaseSpan{name, SecondsBetween(rep_start, mark),
                                   SecondsBetween(rep_start, end)});
    mark = end;
  };
  const double horizon_s = spec.horizon_s * options.horizon_scale;

  // The config goes through the production path every rep, so a flag a
  // later change deletes is ignored here and shows as a metric change.
  const model::ModelCatalog catalog = model::ModelCatalog::Default();
  Result<core::Config> config = core::Config::FromJsonText(spec.config_text);
  if (config.ok()) {
    if (Status valid = config->Validate(catalog, config->NodeGpuCount(0));
        !valid.ok()) {
      config = valid;
    }
  }
  if (!config.ok()) {
    out.violations.push_back("config: " + config.status().ToString());
    return out;
  }
  config->fault.seed = DeriveSeed(options.seed, "fault");
  phase("config", Clock::now());

  const Clock::time_point gen_start = mark;
  Result<Inputs> inputs =
      GenerateInputs(spec, *config, options.seed, horizon_s);
  if (!inputs.ok()) {
    out.violations.push_back("config: " + inputs.status().ToString());
    return out;
  }
  phase("gen", Clock::now());
  out.gen_s = SecondsBetween(gen_start, mark);

  sim::Simulation sim;
  cluster::ClusterServe fleet(sim, *config, catalog);
  // The recorder is on by default; only the traced rep keeps it.
  for (int n = 0; n < fleet.nodes(); ++n) {
    fleet.node(n).serve().obs().trace.set_enabled(options.traced);
  }
  Driver driver(spec, *inputs, horizon_s, sim, fleet,
                options.traced && spec.entry != Entry::kServe);
  phase("construct", Clock::now());

  sim::Spawn(driver.Drive());
  sim.Run();
  const Clock::time_point run_end = Clock::now();
  const DriveLog& log = driver.log();
  const Clock::time_point init_done =
      log.init_done == Clock::time_point{} ? run_end : log.init_done;
  phase("initialize", init_done);
  phase("arrivals", log.arrivals_done == Clock::time_point{}
                        ? run_end
                        : log.arrivals_done);
  phase("drain", run_end);
  out.setup_s = SecondsBetween(rep_start, init_done);
  out.run_wall_s = SecondsBetween(init_done, run_end);
  if (!log.init.ok()) {
    out.violations.push_back("initialize: " + log.init.ToString());
    return out;
  }

  out.sent = inputs->trace.size();
  const Ledger ledger = LedgerOf(fleet);
  CheckOutputs(out.sent, ledger, log, out);
  const double t0 = log.window_start.ToSeconds();
  out.sim = SimMetrics(
      spec, fleet, ledger, out.sent,
      static_cast<double>(sim.processed_events() - log.events_at_start), t0,
      t0 + horizon_s);
  for (int n = 0; n < fleet.nodes(); ++n) {
    const obs::TraceRecorder& trace = fleet.node(n).serve().obs().trace;
    out.trace_events += static_cast<double>(trace.total_emitted());
    out.trace_dropped += static_cast<double>(trace.dropped());
  }
  out.call_us = log.call_us;
  out.call_wall_s = log.call_wall_s;
  if (options.traced && !options.out_dir.empty()) {
    const Clock::time_point export_start = Clock::now();
    ExportTraced(fleet, options.out_dir + "/" + spec.name);
    out.export_s = SecondsBetween(export_start, Clock::now());
  }
  phase("report", Clock::now());
  return out;
}

}  // namespace swapserve::bench::e2e
