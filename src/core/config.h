// SwapServeLLM configuration (§3.2): global runtime parameters plus a list
// of model entries, loadable from JSON and validated before anything
// starts.

#pragma once

#include <map>
#include <string>
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
  fault::FaultPlan plan;
  bool enabled() const { return !plan.empty(); }
};

// Self-healing knobs: bounded retries around swap operations, per-request
// requeue, and the per-backend circuit breaker.
struct RecoveryConfig {
  // The scheduler's swap-in retry policy (crashed backends included).
  int swap_retry_attempts = 3;
  double backoff_initial_s = 0.05;
  double backoff_max_s = 2.0;
  // Failed requests re-enter their backend queue this many extra times
  // before the failure is terminal.
  int request_retry_attempts = 2;
  // Circuit breaker: consecutive failures before quarantine, and how long
  // quarantine lasts before a half-open probe.
  int breaker_failure_threshold = 3;
  double breaker_cooldown_s = 10.0;
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
  std::map<std::string, double, std::less<>> class_budget_s;
  // EWMA smoothing for observed service times, and the prior used before
  // the first observation of a model.
  double ewma_alpha = 0.2;
  double initial_service_s = 0.5;
  // Added to the delay estimate when the backend must swap in first.
  double swap_penalty_s = 0.0;
};

// Multi-node cluster topology (src/cluster). With nodes == 1 (the default)
// the fleet layer is inert: no fabric, no replication, no migration loop,
// and every event stream is byte-identical to the single-machine build.
struct ClusterConfig {
  int nodes = 1;
  // GPUs per node. Empty = one GPU per node; otherwise one entry per node.
  std::vector<int> node_gpus;
  // Inter-node fabric: per-direction bandwidth of each node-pair channel
  // (gigabits/s, like the NICs it models) and per-transfer setup latency.
  double fabric_gbps = 100.0;
  double fabric_latency_us = 10.0;
  // Payload copies per snapshot, home node included. Nodes beyond this get
  // metadata-only placeholders served by on-demand remote fetch.
  int replicate = 1;
  // Restore-target scoring: "locality" (swap-in cost + queue pressure) or
  // "random" (uniform over eligible nodes; the bench baseline).
  std::string placement = "locality";
  // Live swap migration: periodically re-score running models and move
  // them when another node wins by more than the hysteresis factor.
  bool migration = false;
  double migrate_interval_s = 5.0;
  double migrate_hysteresis = 2.0;
  // --- fleet failover (multi-node only; inert with nodes == 1) ----------
  // Heartbeat cadence of the health monitor; every node.crash /
  // node.partition fault point is also evaluated once per beat. 0 disables
  // the monitor, membership detection, and failover entirely.
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
// utilization, and initialization timeout").
struct ModelEntry {
  std::string model_id;     // catalog key, also the API-visible name
  std::string engine;       // "vllm" | "ollama" | "sglang" | "trtllm"
  std::string image;        // empty = engine default image
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
  RecoveryConfig recovery;
  ClusterConfig cluster;
  AdmissionConfig admission;

  // Parse from a JSON document of the shape
  //   {"global": {...}, "models": [{...}, ...],
  //    "fault": {"seed": N, "rules": [{"point": "ckpt.swap_in",
  //              "probability": 0.05, "code": "UNAVAILABLE", ...}]},
  //    "recovery": {...},
  //    "cluster": {"nodes": N, "node_gpus": [...], ...},
  //    "admission": {"enabled": true, "default_budget_s": 2,
  //                  "class_budget_s": {"interactive": 0.5}, ...}}.
  static Result<Config> FromJson(const json::Value& doc);
  static Result<Config> FromJsonText(std::string_view text);

  // Cross-checks every entry against the catalog and the engine registry;
  // returns the first violation. With cluster.nodes > 1 model placement is
  // checked against each entry's home node's GPU count (from
  // cluster.node_gpus) instead of `gpu_count`.
  [[nodiscard]] Status Validate(const model::ModelCatalog& catalog,
                               int gpu_count) const;

  // GPU count of node `node` under this cluster config (defaults to one
  // GPU per node when node_gpus is empty).
  int NodeGpuCount(int node) const;
};

}  // namespace swapserve::core
