#include "core/config.h"

#include <set>
#include <span>

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

}  // namespace

Result<Config> Config::FromJson(const json::Value& doc) {
  if (!doc.is_object()) return InvalidArgument("config: not a JSON object");
  Config cfg;

  if (const json::Value* global = doc.Find("global"); global != nullptr) {
    if (!global->is_object()) {
      return InvalidArgument("config: \"global\" must be an object");
    }
    SWAP_RETURN_IF_ERROR(RejectRemoved(*global, "global", kRemovedGlobal));
    cfg.global.response_timeout_s =
        global->GetDouble("response_timeout_s", cfg.global.response_timeout_s);
    cfg.global.auth_token =
        global->GetString("auth_token", cfg.global.auth_token);
    const std::int64_t queue_capacity = global->GetInt(
        "queue_capacity", static_cast<std::int64_t>(cfg.global.queue_capacity));
    if (queue_capacity < 0) {
      return InvalidArgument("config: global.queue_capacity must be positive "
                             "(got " + std::to_string(queue_capacity) + ")");
    }
    cfg.global.queue_capacity = static_cast<std::size_t>(queue_capacity);
    cfg.global.snapshot_budget_gib =
        global->GetDouble("snapshot_budget_gib", cfg.global.snapshot_budget_gib);
    cfg.global.monitor_interval_s =
        global->GetDouble("monitor_interval_s", cfg.global.monitor_interval_s);
    cfg.global.idle_swap_out_s =
        global->GetDouble("idle_swap_out_s", cfg.global.idle_swap_out_s);
    cfg.global.host_cache_mib =
        global->GetDouble("host_cache_mib", cfg.global.host_cache_mib);
    cfg.global.snapshot_prefetch =
        global->GetBool("snapshot_prefetch", cfg.global.snapshot_prefetch);
    cfg.global.stream_tokens =
        global->GetBool("stream_tokens", cfg.global.stream_tokens);
    cfg.global.stream_chunk_tokens = global->GetInt(
        "stream_chunk_tokens", cfg.global.stream_chunk_tokens);
  }

  if (const json::Value* adm = doc.Find("admission"); adm != nullptr) {
    if (!adm->is_object()) {
      return InvalidArgument("config: \"admission\" must be an object");
    }
    AdmissionConfig& a = cfg.admission;
    a.enabled = adm->GetBool("enabled", a.enabled);
    a.default_budget_s = adm->GetDouble("default_budget_s",
                                        a.default_budget_s);
    if (const json::Value* budgets = adm->Find("class_budget_s");
        budgets != nullptr) {
      if (!budgets->is_object()) {
        return InvalidArgument(
            "config: \"admission.class_budget_s\" must be an object mapping "
            "SLO class to seconds");
      }
      for (const auto& [cls, budget] : budgets->AsObject()) {
        if (!budget.is_number()) {
          return InvalidArgument("config: admission budget for class \"" +
                                 cls + "\" must be a number");
        }
        a.class_budget_s[cls] = budget.AsDouble();
      }
    }
    a.ewma_alpha = adm->GetDouble("ewma_alpha", a.ewma_alpha);
    a.initial_service_s = adm->GetDouble("initial_service_s",
                                         a.initial_service_s);
    a.swap_penalty_s = adm->GetDouble("swap_penalty_s", a.swap_penalty_s);
  }

  if (const json::Value* fault = doc.Find("fault"); fault != nullptr) {
    if (!fault->is_object()) {
      return InvalidArgument("config: \"fault\" must be an object");
    }
    cfg.fault.seed = static_cast<std::uint64_t>(
        fault->GetInt("seed", static_cast<std::int64_t>(cfg.fault.seed)));
    if (const json::Value* rules = fault->Find("rules"); rules != nullptr) {
      if (!rules->is_array()) {
        return InvalidArgument("config: \"fault.rules\" must be an array");
      }
      for (const json::Value& entry : rules->AsArray()) {
        if (!entry.is_object()) {
          return InvalidArgument("config: fault rule must be an object");
        }
        fault::FaultRule r;
        r.point = entry.GetString("point", "");
        if (r.point.empty()) {
          return InvalidArgument("config: fault rule missing \"point\"");
        }
        r.probability = entry.GetDouble("probability", r.probability);
        SWAP_ASSIGN_OR_RETURN(
            r.code, ParseStatusCode(entry.GetString("code", "UNAVAILABLE")));
        r.message = entry.GetString("message", "");
        r.stall_s = entry.GetDouble("stall_s", r.stall_s);
        r.fail = entry.GetBool("fail", r.fail);
        r.max_fires = entry.GetInt("max_fires", r.max_fires);
        r.owner = entry.GetString("owner", "");
        r.arm_after_s = entry.GetDouble("arm_after_s", r.arm_after_s);
        cfg.fault.plan.rules.push_back(std::move(r));
      }
    }
  }

  if (const json::Value* rec = doc.Find("recovery"); rec != nullptr) {
    if (!rec->is_object()) {
      return InvalidArgument("config: \"recovery\" must be an object");
    }
    SWAP_RETURN_IF_ERROR(RejectRemoved(*rec, "recovery", kRemovedRecovery));
  }

  if (const json::Value* cluster = doc.Find("cluster"); cluster != nullptr) {
    if (!cluster->is_object()) {
      return InvalidArgument("config: \"cluster\" must be an object");
    }
    SWAP_RETURN_IF_ERROR(RejectRemoved(*cluster, "cluster", kRemovedCluster));
    ClusterConfig& c = cfg.cluster;
    c.nodes = static_cast<int>(cluster->GetInt("nodes", c.nodes));
    if (const json::Value* gpus = cluster->Find("node_gpus");
        gpus != nullptr) {
      if (!gpus->is_array()) {
        return InvalidArgument("config: \"cluster.node_gpus\" must be an "
                               "array of per-node GPU counts");
      }
      for (const json::Value& n : gpus->AsArray()) {
        if (!n.is_number()) {
          return InvalidArgument("config: \"cluster.node_gpus\" must be an "
                                 "array of per-node GPU counts");
        }
        c.node_gpus.push_back(static_cast<int>(n.AsInt()));
      }
    }
    c.replicate = static_cast<int>(cluster->GetInt("replicate", c.replicate));
    c.placement = cluster->GetString("placement", c.placement);
    c.heartbeat_interval_s =
        cluster->GetDouble("heartbeat_interval_s", c.heartbeat_interval_s);
    c.suspect_after_s =
        cluster->GetDouble("suspect_after_s", c.suspect_after_s);
    c.down_after_s = cluster->GetDouble("down_after_s", c.down_after_s);
    c.node_restart_s =
        cluster->GetDouble("node_restart_s", c.node_restart_s);
    c.repair_concurrency = static_cast<int>(
        cluster->GetInt("repair_concurrency", c.repair_concurrency));
    c.repair_interval_s =
        cluster->GetDouble("repair_interval_s", c.repair_interval_s);
  }

  const json::Value* models = doc.Find("models");
  if (models == nullptr || !models->is_array()) {
    return InvalidArgument("config: missing \"models\" array");
  }
  for (const json::Value& entry : models->AsArray()) {
    if (!entry.is_object()) {
      return InvalidArgument("config: model entry must be an object");
    }
    SWAP_RETURN_IF_ERROR(RejectRemoved(entry, "models[]", kRemovedModel));
    ModelEntry m;
    m.model_id = entry.GetString("model", "");
    if (m.model_id.empty()) {
      return InvalidArgument("config: model entry missing \"model\"");
    }
    m.engine = entry.GetString("engine", "vllm");
    m.gpu_memory_utilization =
        entry.GetDouble("gpu_memory_utilization", m.gpu_memory_utilization);
    m.init_timeout_s = entry.GetDouble("init_timeout_s", m.init_timeout_s);
    m.sleep_mode = entry.GetBool("sleep_mode", m.sleep_mode);
    m.gpu = static_cast<int>(entry.GetInt("gpu", 0));
    m.tp = static_cast<int>(entry.GetInt("tp", 1));
    m.node = static_cast<int>(entry.GetInt("node", 0));
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
