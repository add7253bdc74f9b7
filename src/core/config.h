// SwapServeLLM configuration (§3.2): global runtime parameters plus a list
// of model entries, loadable from JSON and validated before anything
// starts.

#pragma once

#include <array>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "engine/engine.h"
#include "fault/fault_injector.h"
#include "json/json.h"
#include "model/catalog.h"
#include "util/status.h"

namespace swapserve::core {

// Deterministic fault injection (chaos testing). Disabled unless rules are
// present; with no rules the injector never draws from its random stream,
// so fault-free runs are bit-identical with or without this section.
struct FaultConfig {
  std::uint64_t seed = 0x5eedfau;
  std::vector<fault::FaultRule> rules;
  bool enabled() const { return !rules.empty(); }
};

// Engine-wide parameters ("global parameters ... such as response timeout,
// KV cache type, and authentication tokens"; the simulator models no KV
// cache precision, so that one has no key).
struct GlobalConfig {
  double response_timeout_s = 120.0;
  std::string auth_token;  // empty = no auth
  std::size_t queue_capacity = 64;  // per-backend request queue
  // Host RAM budget for in-memory snapshots.
  double snapshot_budget_gib = 192.0;
  // Idle sampling period of the GPU monitor.
  double monitor_interval_s = 1.0;
  // Proactively swap out backends idle for this long (0 = disabled; the
  // paper's workflow swaps out only under memory pressure).
  double idle_swap_out_s = 0.0;
  // Bounded host-RAM snapshot cache in front of the NVMe tier. 0 (the
  // default) makes the tier unbounded: every snapshot stays host-resident
  // and nothing demotes. When set, cold snapshots spill to NVMe (LRU) and
  // are promoted back before restore; must not exceed snapshot_budget_gib.
  double host_cache_mib = 0.0;
  // Demand-aware NVMe->host prefetch: promote a demoted snapshot as soon
  // as a request arrives for its backend (background priority) and again,
  // urgently, when its swap-in starts — overlapping the promotion with the
  // victim's D2H eviction. Only meaningful with host_cache_mib > 0.
  bool snapshot_prefetch = false;
  // SSE-style token streaming (§16): workers deliver per-chunk token
  // events through the response channel as the engine decodes, instead of
  // one burst at completion. Off by default — the burst path produces the
  // exact event schedule older builds did.
  bool stream_tokens = false;
  std::int64_t stream_chunk_tokens = 16;  // tokens per streamed chunk
};

// SLO class -> queue-delay budget in seconds.
using ClassBudgets = std::map<std::string, double, std::less<>>;

// SLO-aware admission control (§16). Off by default: Accept() behaves
// exactly as before (capacity-based rejection only) and the controller is
// never constructed, so default-config runs are byte-identical. When
// enabled, each request's estimated queueing delay — queue depth times an
// EWMA of observed per-request service time, plus a swap penalty when the
// backend is not resident — is compared against the request's SLO-class
// budget, and requests that would blow the budget are shed up front
// (HTTP 429 + Retry-After in the real system) instead of timing out in
// the queue.
struct AdmissionConfig {
  bool enabled = false;
  // Queue-delay budget for requests whose slo_class has no explicit entry
  // (including the empty class).
  double default_budget_s = 2.0;
  // Per-SLO-class budget overrides, e.g. {"interactive": 0.5, "batch": 30}.
  ClassBudgets class_budget_s;
  // EWMA smoothing for observed service times, and the prior used before
  // the first observation of a model.
  double ewma_alpha = 0.2;
  double initial_service_s = 0.5;
  // Added to the delay estimate when the backend must swap in first.
  double swap_penalty_s = 0.0;
};

// Multi-node cluster topology (src/cluster). With nodes == 1 (the default)
// the fleet layer is inert: no fabric, no replication, no failover,
// and every event stream is byte-identical to the single-machine build.
struct ClusterConfig {
  int nodes = 1;
  // GPUs per node. Empty = one GPU per node; otherwise one entry per node.
  std::vector<int> node_gpus;
  // Payload copies per snapshot, home node included. Nodes beyond this get
  // metadata-only placeholders served by on-demand remote fetch.
  int replicate = 1;
  // Restore-target scoring: "locality" (swap-in cost + queue pressure) or
  // "random" (uniform over eligible nodes; the bench baseline).
  std::string placement = "locality";
  // --- fleet failover (multi-node only; inert with nodes == 1) ----------
  // Heartbeat cadence of the health monitor; the node.crash fault point is
  // also evaluated once per beat. 0 disables the monitor, membership
  // detection, and failover entirely.
  double heartbeat_interval_s = 0.5;
  // Phi-accrual-style suspicion thresholds: a node unheard for
  // suspect_after_s turns kSuspect (placement stops routing to it); unheard
  // for down_after_s it is declared kDown and failover runs (queued
  // requests drain to survivors, standbys promote, repair kicks in).
  double suspect_after_s = 1.5;
  double down_after_s = 5.0;
  // Reboot time after a node.crash outage elapses, and the retry spacing
  // when the node.restart fault point keeps a node from coming back.
  double node_restart_s = 20.0;
  // Replication repair: background fetches the repairer may keep in flight
  // while restoring the configured copy count after a replica holder dies.
  // 0 disables repair (the bench ablation baseline).
  int repair_concurrency = 2;
  // Cadence of the repairer's copy-count deficit scan.
  double repair_interval_s = 5.0;
};

// Per-model parameters ("model name, container image, GPU memory
// utilization, and initialization timeout"; an engine's container is part
// of its model::EngineProfile row, so the image has no key).
struct ModelEntry {
  std::string model_id;     // catalog key, also the API-visible name
  std::string engine = "vllm";  // "vllm" | "ollama" | "sglang" | "trtllm"
  double gpu_memory_utilization = 0.9;
  double init_timeout_s = 600.0;
  bool sleep_mode = true;
  int gpu = 0;  // first device index the backend is pinned to
  // Tensor-parallel degree (§6): the backend spans GPUs [gpu, gpu + tp).
  int tp = 1;
  // Home node in a cluster (ignored with cluster.nodes == 1).
  int node = 0;
  // Internal, set by the cluster assembly (never parsed): this entry is a
  // standby replica that adopts a checkpoint instead of cold-starting.
  bool standby = false;
};

struct Config {
  GlobalConfig global;
  std::vector<ModelEntry> models;
  FaultConfig fault;
  ClusterConfig cluster;
  AdmissionConfig admission;

  // Parse from a JSON document of the shape
  //   {"global": {...}, "models": [{...}, ...],
  //    "fault": {"seed": N, "rules": [{"point": "ckpt.swap_in",
  //              "probability": 0.05, "code": "UNAVAILABLE", ...}]},
  //    "cluster": {"nodes": N, "node_gpus": [...], ...},
  //    "admission": {"enabled": true, "default_budget_s": 2,
  //                  "class_budget_s": {"interactive": 0.5}, ...}}.
  // Every key is a row of the schema below.
  static Result<Config> FromJson(const json::Value& doc);
  static Result<Config> FromJsonText(std::string_view text);

  // Checks every schema row's range, then the checks that span fields:
  // every entry against the catalog and the engine registry, fault points
  // against the registry, and the cluster's shape; returns the first
  // violation. With cluster.nodes > 1 model placement is checked against
  // each entry's home node's GPU count (from cluster.node_gpus) instead of
  // `gpu_count`.
  [[nodiscard]] Status Validate(const model::ModelCatalog& catalog,
                               int gpu_count) const;

  // GPU count of node `node` under this cluster config (defaults to one
  // GPU per node when node_gpus is empty).
  int NodeGpuCount(int node) const;
};

// The closed schema. Every key a config can set is one row of its
// section's table: the key, the member it sets (whose C++ type fixes the
// JSON type read) and the member's range. Config::FromJson reads rows'
// keys and rejects any other; Config::Validate checks every row's range
// on the struct, so a config built in code meets the same ranges as one
// loaded from JSON. A removed key stays a row that holds why it went.
namespace schema {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

// Where a value may lie: a number in [lo, hi], either end open; a string
// in `choices` when that is non-empty. A list's range holds for each
// element and a map's for each value.
struct Range {
  double lo = -kInf;
  double hi = kInf;
  bool lo_open = false;
  bool hi_open = false;
  std::span<const std::string_view> choices = {};
};

inline constexpr Range kPositive{.lo = 0, .lo_open = true};
inline constexpr Range kNonNegative{.lo = 0};
inline constexpr Range kAtLeastOne{.lo = 1};
inline constexpr Range kProbability{.lo = 0, .hi = 1};
inline constexpr Range kFraction{.lo = 0, .hi = 1, .lo_open = true};
inline constexpr std::string_view kPlacements[] = {"locality", "random"};

// A deleted setting: its key fails at load, giving this reason.
struct Removed {
  std::string_view why;
};
// A top-level section another program owns (bench_e2e reads "bench" from
// the same file): any object, passed through unread.
struct Unread {};
// A section all of whose keys were removed ("recovery").
struct Retired {};

template <typename S>
using Field =
    std::variant<Removed, Unread, Retired, bool S::*, int S::*,
                 std::int64_t S::*, std::uint64_t S::*, double S::*,
                 std::string S::*, StatusCode S::*, std::vector<int> S::*,
                 ClassBudgets S::*, GlobalConfig S::*, AdmissionConfig S::*,
                 FaultConfig S::*, ClusterConfig S::*,
                 std::vector<fault::FaultRule> S::*,
                 std::vector<ModelEntry> S::*>;

template <typename S>
struct Row {
  std::string_view key;
  Field<S> field;
  Range range = {};
  bool required = false;  // present, not null, and not an empty string
};

// A section's rows; none for a type that is not a section.
template <typename S>
inline constexpr auto kRows = std::array<Row<S>, 0>{};

template <typename S, std::size_t N>
constexpr std::array<Row<S>, N> Rows(Row<S> (&&rows)[N]) {
  return std::to_array(rows);
}

inline constexpr std::string_view kSerialSwap =
    "hot-swaps always use the serial checkpoint/restore path";
inline constexpr std::string_view kNoSupervisor =
    "the engine supervisor is gone; a crashed backend is restored on its "
    "next request";
inline constexpr std::string_view kNoMigration =
    "live migration is gone; a model moves between nodes only through "
    "placement and failover";
inline constexpr std::string_view kRecoveryConstant =
    "the recovery stack is constant: 3 swap-in tries with 50 ms to 2 s "
    "backoff, 2 request requeues, and a breaker that opens after 3 "
    "failures for 10 s";
inline constexpr std::string_view kFabricConstant =
    "the fabric is constant: 100 Gbit/s per direction with a 10 us setup "
    "latency";

template <>
inline constexpr auto kRows<Config> = Rows<Config>({
    {"bench", Unread{}},
    {"global", &Config::global},
    {"admission", &Config::admission},
    {"fault", &Config::fault},
    {"recovery", Retired{}},
    {"cluster", &Config::cluster},
    {"models", &Config::models, {}, true},
});

template <>
inline constexpr auto kRows<GlobalConfig> = Rows<GlobalConfig>({
    {"response_timeout_s", &GlobalConfig::response_timeout_s, kPositive},
    {"auth_token", &GlobalConfig::auth_token},
    {"queue_capacity", &GlobalConfig::queue_capacity, kAtLeastOne},
    {"snapshot_budget_gib", &GlobalConfig::snapshot_budget_gib, kPositive},
    // At least 1 ns, which Validate checks on the nanosecond grid.
    {"monitor_interval_s", &GlobalConfig::monitor_interval_s},
    {"idle_swap_out_s", &GlobalConfig::idle_swap_out_s, kNonNegative},
    {"host_cache_mib", &GlobalConfig::host_cache_mib, kNonNegative},
    {"snapshot_prefetch", &GlobalConfig::snapshot_prefetch},
    {"stream_tokens", &GlobalConfig::stream_tokens},
    {"stream_chunk_tokens", &GlobalConfig::stream_chunk_tokens, kAtLeastOne},
    {"pipelined_swap", Removed{kSerialSwap}},
    {"swap_chunk_mib", Removed{kSerialSwap}},
    {"kv_cache_type",
     Removed{"it was never read, so setting it changed nothing"}},
});

template <>
inline constexpr auto kRows<AdmissionConfig> = Rows<AdmissionConfig>({
    {"enabled", &AdmissionConfig::enabled},
    {"default_budget_s", &AdmissionConfig::default_budget_s, kPositive},
    // SLO class -> seconds: the keys are the operator's class names.
    {"class_budget_s", &AdmissionConfig::class_budget_s, kPositive},
    {"ewma_alpha", &AdmissionConfig::ewma_alpha, kFraction},
    {"initial_service_s", &AdmissionConfig::initial_service_s, kPositive},
    {"swap_penalty_s", &AdmissionConfig::swap_penalty_s, kNonNegative},
});

template <>
inline constexpr auto kRows<FaultConfig> = Rows<FaultConfig>({
    {"seed", &FaultConfig::seed},
    {"rules", &FaultConfig::rules},
});

template <>
inline constexpr auto kRows<fault::FaultRule> = Rows<fault::FaultRule>({
    {"point", &fault::FaultRule::point, {}, true},
    {"probability", &fault::FaultRule::probability, kProbability},
    {"code", &fault::FaultRule::code},
    {"message", &fault::FaultRule::message},
    {"stall_s", &fault::FaultRule::stall_s, kNonNegative},
    {"fail", &fault::FaultRule::fail},
    {"max_fires", &fault::FaultRule::max_fires},
    {"owner", &fault::FaultRule::owner},
    {"arm_after_s", &fault::FaultRule::arm_after_s, kNonNegative},
});

template <>
inline constexpr auto kRows<Retired> = Rows<Retired>({
    {"health_check_interval_s", Removed{kNoSupervisor}},
    {"hang_deadline_s", Removed{kNoSupervisor}},
    {"rejuvenate_after_s",
     Removed{"the engine supervisor is gone; global.idle_swap_out_s swaps "
             "out idle backends"}},
    {"swap_retry_attempts", Removed{kRecoveryConstant}},
    {"backoff_initial_s", Removed{kRecoveryConstant}},
    {"backoff_max_s", Removed{kRecoveryConstant}},
    {"request_retry_attempts", Removed{kRecoveryConstant}},
    {"breaker_failure_threshold", Removed{kRecoveryConstant}},
    {"breaker_cooldown_s", Removed{kRecoveryConstant}},
});

template <>
inline constexpr auto kRows<ClusterConfig> = Rows<ClusterConfig>({
    {"nodes", &ClusterConfig::nodes, kAtLeastOne},
    {"node_gpus", &ClusterConfig::node_gpus, kAtLeastOne},
    {"replicate", &ClusterConfig::replicate, kAtLeastOne},
    {"placement", &ClusterConfig::placement, {.choices = kPlacements}},
    {"heartbeat_interval_s", &ClusterConfig::heartbeat_interval_s,
     kNonNegative},
    {"suspect_after_s", &ClusterConfig::suspect_after_s},
    {"down_after_s", &ClusterConfig::down_after_s},
    {"node_restart_s", &ClusterConfig::node_restart_s, kPositive},
    {"repair_concurrency", &ClusterConfig::repair_concurrency, kNonNegative},
    {"repair_interval_s", &ClusterConfig::repair_interval_s, kPositive},
    {"migration", Removed{kNoMigration}},
    {"migrate_interval_s", Removed{kNoMigration}},
    {"migrate_hysteresis", Removed{kNoMigration}},
    {"fabric_gbps", Removed{kFabricConstant}},
    {"fabric_latency_us", Removed{kFabricConstant}},
});

// gpu, tp and node have no row range: their bounds are the home node's
// GPU count and cluster.nodes, which Validate checks.
template <>
inline constexpr auto kRows<ModelEntry> = Rows<ModelEntry>({
    {"model", &ModelEntry::model_id, {}, true},
    {"engine", &ModelEntry::engine},
    {"gpu_memory_utilization", &ModelEntry::gpu_memory_utilization,
     kFraction},
    {"init_timeout_s", &ModelEntry::init_timeout_s, kPositive},
    {"sleep_mode", &ModelEntry::sleep_mode},
    {"gpu", &ModelEntry::gpu},
    {"tp", &ModelEntry::tp},
    {"node", &ModelEntry::node},
    {"image",
     Removed{"it was never read (engines always use their default image), "
             "so setting it changed nothing"}},
});

}  // namespace schema

}  // namespace swapserve::core
