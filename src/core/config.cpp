#include "core/config.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "fault/fault_points.h"
#include "model/calibration.h"
#include "sim/time.h"

namespace swapserve::core {
namespace {

// Removed keys fail loudly rather than being silently ignored: a config
// written for a deleted feature must not run without it unnoticed.
struct RemovedKey {
  const char* key;
  const char* why;
};

constexpr const char* kSerialSwap =
    "hot-swaps always use the serial checkpoint/restore path";
constexpr const char* kNoSupervisor =
    "the engine supervisor is gone; a crashed backend is restored on its "
    "next request";
constexpr const char* kNoMigration =
    "live migration is gone; a model moves between nodes only through "
    "placement and failover";
constexpr const char* kRecoveryConstant =
    "the recovery stack is constant: 3 swap-in tries with 50 ms to 2 s "
    "backoff, 2 request requeues, and a breaker that opens after 3 "
    "failures for 10 s";
constexpr const char* kFabricConstant =
    "the fabric is constant: 100 Gbit/s per direction with a 10 us setup "
    "latency";

constexpr RemovedKey kRemovedGlobal[] = {
    {"pipelined_swap", kSerialSwap},
    {"swap_chunk_mib", kSerialSwap},
    {"kv_cache_type", "it was never read, so setting it changed nothing"},
};

constexpr RemovedKey kRemovedCluster[] = {
    {"migration", kNoMigration},
    {"migrate_interval_s", kNoMigration},
    {"migrate_hysteresis", kNoMigration},
    {"fabric_gbps", kFabricConstant},
    {"fabric_latency_us", kFabricConstant},
};

constexpr RemovedKey kRemovedModel[] = {
    {"image",
     "it was never read (engines always use their default image), so "
     "setting it changed nothing"},
};

constexpr RemovedKey kRemovedRecovery[] = {
    {"health_check_interval_s", kNoSupervisor},
    {"hang_deadline_s", kNoSupervisor},
    {"rejuvenate_after_s",
     "the engine supervisor is gone; global.idle_swap_out_s swaps out idle "
     "backends"},
    {"swap_retry_attempts", kRecoveryConstant},
    {"backoff_initial_s", kRecoveryConstant},
    {"backoff_max_s", kRecoveryConstant},
    {"request_retry_attempts", kRecoveryConstant},
    {"breaker_failure_threshold", kRecoveryConstant},
    {"breaker_cooldown_s", kRecoveryConstant},
};

Status RejectRemoved(const json::Value& section, std::string_view name,
                     std::span<const RemovedKey> removed) {
  for (const RemovedKey& r : removed) {
    if (section.Find(r.key) != nullptr) {
      return InvalidArgument("config: " + std::string(name) + "." + r.key +
                             " was removed; " + r.why);
    }
  }
  return Status::Ok();
}

// Levenshtein distance, for suggesting the key a typo meant.
std::size_t EditDistance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

// One JSON object of the config, read key by key. Each read checks the
// value's type (null reads as absent); Finish() returns the first type
// error, else rejects the first key nothing read — a typo, or a setting
// this build does not have — naming the nearest known key within edit
// distance 2.
class Section {
 public:
  // `path` names the object in errors ("global", "models[0]"); the root's
  // is empty.
  Section(const json::Value& object, std::string path)
      : object_(object), path_(std::move(path)) {}

  bool Bool(std::string_view key, bool fallback) {
    const json::Value* v = Read(key, json::Type::kBool, "a boolean");
    return v != nullptr ? v->AsBool() : fallback;
  }
  double Double(std::string_view key, double fallback) {
    const json::Value* v = Read(key, json::Type::kNumber, "a number");
    return v != nullptr ? v->AsDouble() : fallback;
  }
  std::int64_t Int(std::string_view key, std::int64_t fallback) {
    const json::Value* v = Read(key, json::Type::kNumber, "an integer");
    if (v == nullptr) return fallback;
    if (v->AsDouble() != std::trunc(v->AsDouble())) {
      Fail(Path(key) + " must be an integer");
      return fallback;
    }
    return v->AsInt();
  }
  std::string String(std::string_view key, std::string fallback) {
    const json::Value* v = Read(key, json::Type::kString, "a string");
    return v != nullptr ? v->AsString() : std::move(fallback);
  }
  // A nested object or array; nullptr when absent or of the wrong type.
  const json::Value* Object(std::string_view key) {
    return Read(key, json::Type::kObject, "an object");
  }
  const json::Value* Array(std::string_view key) {
    return Read(key, json::Type::kArray, "an array");
  }

  std::string Path(std::string_view key) const {
    return path_.empty() ? std::string(key) : path_ + "." + std::string(key);
  }

  Status Finish() const {
    if (!status_.ok()) return status_;
    for (const auto& [key, value] : object_.AsObject()) {
      if (std::find(known_.begin(), known_.end(), key) != known_.end()) {
        continue;
      }
      std::string message = "config: unknown " +
                             std::string(path_.empty() ? "section" : "key") +
                             " \"" + Path(key) + "\"";
      std::string_view nearest;
      std::size_t best = 3;
      for (std::string_view k : known_) {
        const std::size_t d = EditDistance(key, k);
        if (d < best) {
          best = d;
          nearest = k;
        }
      }
      if (!nearest.empty()) {
        message += " (did you mean \"" + Path(nearest) + "\"?)";
      }
      return InvalidArgument(message);
    }
    return Status::Ok();
  }

 private:
  const json::Value* Read(std::string_view key, json::Type type,
                          std::string_view what) {
    known_.push_back(key);
    const json::Value* v = object_.Find(key);
    if (v == nullptr || v->is_null()) return nullptr;
    if (v->type() != type) {
      Fail(Path(key) + " must be " + std::string(what));
      return nullptr;
    }
    return v;
  }
  void Fail(std::string message) {
    if (status_.ok()) status_ = InvalidArgument("config: " + message);
  }

  const json::Value& object_;
  std::string path_;
  std::vector<std::string_view> known_;
  Status status_ = Status::Ok();
};

}  // namespace

Result<Config> Config::FromJson(const json::Value& doc) {
  if (!doc.is_object()) return InvalidArgument("config: not a JSON object");
  Config cfg;
  Section root(doc, "");
  // Owned by bench_e2e, which reads its workload from the same file;
  // passed through unread.
  (void)root.Object("bench");

  if (const json::Value* global_doc = root.Object("global")) {
    SWAP_RETURN_IF_ERROR(RejectRemoved(*global_doc, "global", kRemovedGlobal));
    Section global(*global_doc, "global");
    GlobalConfig& g = cfg.global;
    g.response_timeout_s =
        global.Double("response_timeout_s", g.response_timeout_s);
    g.auth_token = global.String("auth_token", g.auth_token);
    const std::int64_t queue_capacity = global.Int(
        "queue_capacity", static_cast<std::int64_t>(g.queue_capacity));
    if (queue_capacity < 0) {
      return InvalidArgument("config: global.queue_capacity must be positive "
                             "(got " + std::to_string(queue_capacity) + ")");
    }
    g.queue_capacity = static_cast<std::size_t>(queue_capacity);
    g.snapshot_budget_gib =
        global.Double("snapshot_budget_gib", g.snapshot_budget_gib);
    g.monitor_interval_s =
        global.Double("monitor_interval_s", g.monitor_interval_s);
    g.idle_swap_out_s = global.Double("idle_swap_out_s", g.idle_swap_out_s);
    g.host_cache_mib = global.Double("host_cache_mib", g.host_cache_mib);
    g.snapshot_prefetch =
        global.Bool("snapshot_prefetch", g.snapshot_prefetch);
    g.stream_tokens = global.Bool("stream_tokens", g.stream_tokens);
    g.stream_chunk_tokens =
        global.Int("stream_chunk_tokens", g.stream_chunk_tokens);
    SWAP_RETURN_IF_ERROR(global.Finish());
  }

  if (const json::Value* adm_doc = root.Object("admission")) {
    Section adm(*adm_doc, "admission");
    AdmissionConfig& a = cfg.admission;
    a.enabled = adm.Bool("enabled", a.enabled);
    a.default_budget_s = adm.Double("default_budget_s", a.default_budget_s);
    // SLO class -> seconds: the keys are the operator's class names.
    if (const json::Value* budgets = adm.Object("class_budget_s")) {
      for (const auto& [cls, budget] : budgets->AsObject()) {
        if (!budget.is_number()) {
          return InvalidArgument("config: admission budget for class \"" +
                                 cls + "\" must be a number");
        }
        a.class_budget_s[cls] = budget.AsDouble();
      }
    }
    a.ewma_alpha = adm.Double("ewma_alpha", a.ewma_alpha);
    a.initial_service_s = adm.Double("initial_service_s", a.initial_service_s);
    a.swap_penalty_s = adm.Double("swap_penalty_s", a.swap_penalty_s);
    SWAP_RETURN_IF_ERROR(adm.Finish());
  }

  if (const json::Value* fault_doc = root.Object("fault")) {
    Section fault(*fault_doc, "fault");
    cfg.fault.seed = static_cast<std::uint64_t>(
        fault.Int("seed", static_cast<std::int64_t>(cfg.fault.seed)));
    if (const json::Value* rules = fault.Array("rules")) {
      for (std::size_t i = 0; i < rules->AsArray().size(); ++i) {
        const json::Value& entry = rules->AsArray()[i];
        if (!entry.is_object()) {
          return InvalidArgument("config: fault rule must be an object");
        }
        Section rule(entry, "fault.rules[" + std::to_string(i) + "]");
        fault::FaultRule r;
        r.point = rule.String("point", "");
        if (r.point.empty()) {
          return InvalidArgument("config: fault rule missing \"point\"");
        }
        r.probability = rule.Double("probability", r.probability);
        SWAP_ASSIGN_OR_RETURN(
            r.code, ParseStatusCode(rule.String("code", "UNAVAILABLE")));
        r.message = rule.String("message", "");
        r.stall_s = rule.Double("stall_s", r.stall_s);
        r.fail = rule.Bool("fail", r.fail);
        r.max_fires = rule.Int("max_fires", r.max_fires);
        r.owner = rule.String("owner", "");
        r.arm_after_s = rule.Double("arm_after_s", r.arm_after_s);
        SWAP_RETURN_IF_ERROR(rule.Finish());
        cfg.fault.plan.rules.push_back(std::move(r));
      }
    }
    SWAP_RETURN_IF_ERROR(fault.Finish());
  }

  if (const json::Value* rec = root.Object("recovery")) {
    SWAP_RETURN_IF_ERROR(RejectRemoved(*rec, "recovery", kRemovedRecovery));
    // Every recovery setting is a constant now: any other key is unknown.
    SWAP_RETURN_IF_ERROR(Section(*rec, "recovery").Finish());
  }

  if (const json::Value* cluster_doc = root.Object("cluster")) {
    SWAP_RETURN_IF_ERROR(
        RejectRemoved(*cluster_doc, "cluster", kRemovedCluster));
    Section cluster(*cluster_doc, "cluster");
    ClusterConfig& c = cfg.cluster;
    c.nodes = static_cast<int>(cluster.Int("nodes", c.nodes));
    if (const json::Value* gpus = cluster.Array("node_gpus")) {
      for (const json::Value& n : gpus->AsArray()) {
        if (!n.is_number()) {
          return InvalidArgument("config: \"cluster.node_gpus\" must be an "
                                 "array of per-node GPU counts");
        }
        c.node_gpus.push_back(static_cast<int>(n.AsInt()));
      }
    }
    c.replicate = static_cast<int>(cluster.Int("replicate", c.replicate));
    c.placement = cluster.String("placement", c.placement);
    c.heartbeat_interval_s =
        cluster.Double("heartbeat_interval_s", c.heartbeat_interval_s);
    c.suspect_after_s = cluster.Double("suspect_after_s", c.suspect_after_s);
    c.down_after_s = cluster.Double("down_after_s", c.down_after_s);
    c.node_restart_s = cluster.Double("node_restart_s", c.node_restart_s);
    c.repair_concurrency = static_cast<int>(
        cluster.Int("repair_concurrency", c.repair_concurrency));
    c.repair_interval_s =
        cluster.Double("repair_interval_s", c.repair_interval_s);
    SWAP_RETURN_IF_ERROR(cluster.Finish());
  }

  const json::Value* models = root.Array("models");
  SWAP_RETURN_IF_ERROR(root.Finish());
  if (models == nullptr) {
    return InvalidArgument("config: missing \"models\" array");
  }
  for (std::size_t i = 0; i < models->AsArray().size(); ++i) {
    const json::Value& entry = models->AsArray()[i];
    if (!entry.is_object()) {
      return InvalidArgument("config: model entry must be an object");
    }
    SWAP_RETURN_IF_ERROR(RejectRemoved(entry, "models[]", kRemovedModel));
    Section section(entry, "models[" + std::to_string(i) + "]");
    ModelEntry m;
    m.model_id = section.String("model", "");
    if (m.model_id.empty()) {
      return InvalidArgument("config: model entry missing \"model\"");
    }
    m.engine = section.String("engine", "vllm");
    m.gpu_memory_utilization =
        section.Double("gpu_memory_utilization", m.gpu_memory_utilization);
    m.init_timeout_s = section.Double("init_timeout_s", m.init_timeout_s);
    m.sleep_mode = section.Bool("sleep_mode", m.sleep_mode);
    m.gpu = static_cast<int>(section.Int("gpu", 0));
    m.tp = static_cast<int>(section.Int("tp", 1));
    m.node = static_cast<int>(section.Int("node", 0));
    SWAP_RETURN_IF_ERROR(section.Finish());
    cfg.models.push_back(std::move(m));
  }
  return cfg;
}

Result<Config> Config::FromJsonText(std::string_view text) {
  SWAP_ASSIGN_OR_RETURN(json::Value doc, json::Parse(text));
  return FromJson(doc);
}

int Config::NodeGpuCount(int node) const {
  if (node < 0 || node >= cluster.nodes) return 0;
  if (cluster.node_gpus.empty()) return 1;
  return cluster.node_gpus[static_cast<std::size_t>(node)];
}

Status Config::Validate(const model::ModelCatalog& catalog,
                        int gpu_count) const {
  if (models.empty()) return InvalidArgument("config: no models configured");
  if (global.response_timeout_s <= 0) {
    return InvalidArgument("config: response_timeout_s must be positive");
  }
  if (global.queue_capacity == 0) {
    return InvalidArgument("config: queue_capacity must be positive");
  }
  if (global.snapshot_budget_gib <= 0) {
    return InvalidArgument("config: snapshot_budget_gib must be positive");
  }
  // The GPU monitor samples on this grid; an interval that truncates to
  // 0 ns would never advance it.
  if (sim::Seconds(global.monitor_interval_s).ns() <= 0) {
    return InvalidArgument(
        "config: monitor_interval_s must be positive (at least 1 ns)");
  }
  if (global.idle_swap_out_s < 0) {
    return InvalidArgument("config: idle_swap_out_s must be >= 0");
  }
  if (global.host_cache_mib < 0) {
    return InvalidArgument("config: host_cache_mib must be >= 0");
  }
  if (global.host_cache_mib / 1024.0 > global.snapshot_budget_gib) {
    return InvalidArgument(
        "config: host_cache_mib exceeds snapshot_budget_gib");
  }
  if (global.stream_chunk_tokens < 1) {
    return InvalidArgument("config: stream_chunk_tokens must be >= 1");
  }
  if (admission.default_budget_s <= 0) {
    return InvalidArgument(
        "config: admission.default_budget_s must be positive");
  }
  for (const auto& [cls, budget] : admission.class_budget_s) {
    if (budget <= 0) {
      return InvalidArgument("config: admission budget for class \"" + cls +
                             "\" must be positive");
    }
  }
  if (admission.ewma_alpha <= 0 || admission.ewma_alpha > 1) {
    return InvalidArgument("config: admission.ewma_alpha out of (0, 1]");
  }
  if (admission.initial_service_s <= 0) {
    return InvalidArgument(
        "config: admission.initial_service_s must be positive");
  }
  if (admission.swap_penalty_s < 0) {
    return InvalidArgument("config: admission.swap_penalty_s must be >= 0");
  }
  for (const fault::FaultRule& r : fault.plan.rules) {
    if (!fault::IsRegisteredFaultPoint(r.point)) {
      return InvalidArgument("config: fault rule names unregistered point \"" +
                             r.point + "\" (see src/fault/fault_points.h)");
    }
    if (r.probability < 0 || r.probability > 1) {
      return InvalidArgument("config: fault rule " + r.point +
                             ": probability out of [0, 1]");
    }
    if (r.stall_s < 0 || r.arm_after_s < 0) {
      return InvalidArgument("config: fault rule " + r.point +
                             ": negative duration");
    }
  }
  if (cluster.nodes < 1) {
    return InvalidArgument("config: cluster.nodes must be >= 1 (got " +
                           std::to_string(cluster.nodes) + ")");
  }
  if (!cluster.node_gpus.empty() &&
      cluster.node_gpus.size() != static_cast<std::size_t>(cluster.nodes)) {
    return InvalidArgument(
        "config: cluster.node_gpus lists " +
        std::to_string(cluster.node_gpus.size()) +
        " node(s) but cluster.nodes is " + std::to_string(cluster.nodes) +
        "; give one GPU count per node or omit the list");
  }
  for (std::size_t i = 0; i < cluster.node_gpus.size(); ++i) {
    if (cluster.node_gpus[i] < 1) {
      return InvalidArgument("config: cluster.node_gpus[" +
                             std::to_string(i) +
                             "] must be >= 1 (every node needs a GPU)");
    }
  }
  if (cluster.replicate < 1 || cluster.replicate > cluster.nodes) {
    return InvalidArgument(
        "config: cluster.replicate must be in [1, cluster.nodes]; got " +
        std::to_string(cluster.replicate) + " with " +
        std::to_string(cluster.nodes) + " node(s)");
  }
  if (cluster.placement != "locality" && cluster.placement != "random") {
    return InvalidArgument("config: cluster.placement must be \"locality\" "
                           "or \"random\" (got \"" +
                           cluster.placement + "\")");
  }
  if (cluster.heartbeat_interval_s < 0) {
    return InvalidArgument(
        "config: cluster.heartbeat_interval_s must be >= 0 (0 disables the "
        "health monitor)");
  }
  if (cluster.heartbeat_interval_s > 0 &&
      (cluster.suspect_after_s <= 0 ||
       cluster.down_after_s <= cluster.suspect_after_s)) {
    return InvalidArgument(
        "config: need 0 < cluster.suspect_after_s < cluster.down_after_s "
        "(a node must pass through suspicion before it is declared down)");
  }
  if (cluster.node_restart_s <= 0) {
    return InvalidArgument("config: cluster.node_restart_s must be positive");
  }
  if (cluster.repair_concurrency < 0) {
    return InvalidArgument(
        "config: cluster.repair_concurrency must be >= 0 (0 disables "
        "replication repair)");
  }
  if (cluster.repair_interval_s <= 0) {
    return InvalidArgument(
        "config: cluster.repair_interval_s must be positive");
  }
  const bool clustered = cluster.nodes > 1;
  std::set<std::string> seen;
  for (const ModelEntry& m : models) {
    if (!seen.insert(m.model_id).second) {
      return InvalidArgument("config: duplicate model " + m.model_id);
    }
    if (!catalog.Contains(m.model_id)) {
      return NotFound("config: model " + m.model_id + " not in catalog");
    }
    if (model::FindEngineProfile(m.engine) == nullptr) {
      return InvalidArgument("unknown engine kind: " + m.engine);
    }
    if (m.gpu_memory_utilization <= 0 || m.gpu_memory_utilization > 1.0) {
      return InvalidArgument("config: model " + m.model_id +
                             ": gpu_memory_utilization out of (0, 1]");
    }
    if (m.init_timeout_s <= 0) {
      return InvalidArgument("config: model " + m.model_id +
                             ": init_timeout_s must be positive");
    }
    if (m.node < 0 || m.node >= cluster.nodes) {
      return InvalidArgument("config: model " + m.model_id +
                             ": home node " + std::to_string(m.node) +
                             " out of range for a " +
                             std::to_string(cluster.nodes) +
                             "-node cluster");
    }
    // With one node the machine's real GPU count bounds placement; in a
    // cluster each entry must fit its home node's GPU count.
    const int host_gpus = clustered ? NodeGpuCount(m.node) : gpu_count;
    if (m.gpu < 0 || m.gpu >= host_gpus) {
      return InvalidArgument("config: model " + m.model_id + ": gpu index " +
                             std::to_string(m.gpu) + " out of range");
    }
    if (m.tp < 1 || m.gpu + m.tp > host_gpus) {
      return InvalidArgument(
          "config: model " + m.model_id + ": tensor-parallel group [" +
          std::to_string(m.gpu) + ", " + std::to_string(m.gpu + m.tp) +
          ") does not fit the " + std::to_string(host_gpus) + "-GPU " +
          (clustered ? "node " + std::to_string(m.node) : "host"));
    }
  }
  return Status::Ok();
}

}  // namespace swapserve::core
