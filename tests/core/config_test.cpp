#include "core/config.h"

#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/metrics.h"

namespace swapserve::core {
namespace {

const char* kFullConfig = R"({
  "global": {
    "response_timeout_s": 60,
    "auth_token": "tok",
    "queue_capacity": 32,
    "snapshot_budget_gib": 128,
    "monitor_interval_s": 5
  },
  "models": [
    {
      "model": "llama-3.2-1b-fp16",
      "engine": "vllm",
      "gpu_memory_utilization": 0.85,
      "init_timeout_s": 300,
      "sleep_mode": false,
      "gpu": 1
    },
    {"model": "deepseek-r1-7b-fp16", "engine": "ollama"}
  ]
})";

TEST(ConfigTest, ParsesFullDocument) {
  auto cfg = Config::FromJsonText(kFullConfig);
  ASSERT_TRUE(cfg.ok()) << cfg.status();
  EXPECT_DOUBLE_EQ(cfg->global.response_timeout_s, 60);
  EXPECT_EQ(cfg->global.auth_token, "tok");
  EXPECT_EQ(cfg->global.queue_capacity, 32u);
  EXPECT_DOUBLE_EQ(cfg->global.snapshot_budget_gib, 128);
  ASSERT_EQ(cfg->models.size(), 2u);
  EXPECT_EQ(cfg->models[0].model_id, "llama-3.2-1b-fp16");
  EXPECT_EQ(cfg->models[0].engine, "vllm");
  EXPECT_DOUBLE_EQ(cfg->models[0].gpu_memory_utilization, 0.85);
  EXPECT_FALSE(cfg->models[0].sleep_mode);
  EXPECT_EQ(cfg->models[0].gpu, 1);
  // Defaults for the second entry.
  EXPECT_EQ(cfg->models[1].engine, "ollama");
  EXPECT_TRUE(cfg->models[1].sleep_mode);
  EXPECT_EQ(cfg->models[1].gpu, 0);
}

TEST(ConfigTest, DefaultsWhenGlobalOmitted) {
  auto cfg = Config::FromJsonText(
      R"({"models": [{"model": "llama-3.2-1b-fp16"}]})");
  ASSERT_TRUE(cfg.ok());
  EXPECT_DOUBLE_EQ(cfg->global.response_timeout_s, 120.0);
  EXPECT_EQ(cfg->models[0].engine, "vllm");  // default engine
}

TEST(ConfigTest, ParseErrors) {
  EXPECT_FALSE(Config::FromJsonText("[]").ok());
  EXPECT_FALSE(Config::FromJsonText("{}").ok());  // no models
  EXPECT_FALSE(Config::FromJsonText(R"({"models": {}})").ok());
  EXPECT_FALSE(Config::FromJsonText(R"({"models": [42]})").ok());
  EXPECT_FALSE(
      Config::FromJsonText(R"({"models": [{"engine": "vllm"}]})").ok());
  EXPECT_FALSE(
      Config::FromJsonText(R"({"global": 3, "models": [{"model":"m"}]})")
          .ok());
  // A negative capacity must not wrap to SIZE_MAX (an unbounded queue).
  EXPECT_FALSE(Config::FromJsonText(
                   R"({"global": {"queue_capacity": -1},
                       "models": [{"model": "m"}]})")
                   .ok());
}

// Keys of deleted features fail at load with an error that names them and
// says what replaced them, instead of being silently ignored.
TEST(ConfigTest, RemovedKeysFailLoudly) {
  struct Case {
    std::string section, key, value, why;
  };
  const Case cases[] = {
      {"global", "pipelined_swap", "true", "serial"},
      {"global", "pipelined_swap", "false", "serial"},
      {"global", "swap_chunk_mib", "512", "serial"},
      {"global", "kv_cache_type", "\"fp8\"", "never read"},
      {"recovery", "health_check_interval_s", "1", "next request"},
      {"recovery", "hang_deadline_s", "30", "next request"},
      {"recovery", "rejuvenate_after_s", "60", "idle_swap_out_s"},
      {"recovery", "swap_retry_attempts", "5", "constant"},
      {"recovery", "backoff_initial_s", "0.1", "constant"},
      {"recovery", "backoff_max_s", "4", "constant"},
      {"recovery", "request_retry_attempts", "0", "constant"},
      {"recovery", "breaker_failure_threshold", "5", "constant"},
      {"recovery", "breaker_cooldown_s", "30", "constant"},
      {"cluster", "migration", "true", "placement and failover"},
      {"cluster", "migrate_interval_s", "5", "placement and failover"},
      {"cluster", "migrate_hysteresis", "2", "placement and failover"},
      {"cluster", "fabric_gbps", "200", "constant"},
      {"cluster", "fabric_latency_us", "5", "constant"},
      {"models[]", "image", "\"no-such-image:latest\"", "never read"},
  };
  for (const Case& c : cases) {
    const std::string key = "\"" + c.key + "\": " + c.value;
    auto cfg = Config::FromJsonText(
        c.section == "models[]"
            ? R"({"models": [{"model": "m", )" + key + "}]}"
            : R"({")" + c.section + R"(": {)" + key +
                  R"(}, "models": [{"model": "m"}]})");
    ASSERT_FALSE(cfg.ok()) << c.key;
    EXPECT_EQ(cfg.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(cfg.status().message().find(c.section + "." + c.key),
              std::string::npos)
        << cfg.status();
    EXPECT_NE(cfg.status().message().find(c.why), std::string::npos)
        << cfg.status();
  }
}

class ValidateTest : public ::testing::Test {
 protected:
  model::ModelCatalog catalog = model::ModelCatalog::Default();

  Config Valid() {
    Config cfg;
    ModelEntry m;
    m.model_id = "llama-3.2-1b-fp16";
    m.engine = "vllm";
    cfg.models.push_back(m);
    return cfg;
  }
};

TEST_F(ValidateTest, ValidPasses) {
  EXPECT_TRUE(Valid().Validate(catalog, 1).ok());
}

TEST_F(ValidateTest, RejectsEmptyModels) {
  Config cfg;
  EXPECT_FALSE(cfg.Validate(catalog, 1).ok());
}

TEST_F(ValidateTest, RejectsUnknownModel) {
  Config cfg = Valid();
  cfg.models[0].model_id = "ghost";
  EXPECT_EQ(cfg.Validate(catalog, 1).code(), StatusCode::kNotFound);
}

TEST_F(ValidateTest, RejectsUnknownEngine) {
  Config cfg = Valid();
  cfg.models[0].engine = "hal9000";
  EXPECT_EQ(cfg.Validate(catalog, 1).code(), StatusCode::kInvalidArgument);
}

TEST_F(ValidateTest, RejectsDuplicates) {
  Config cfg = Valid();
  cfg.models.push_back(cfg.models[0]);
  EXPECT_EQ(cfg.Validate(catalog, 1).code(), StatusCode::kInvalidArgument);
}

TEST_F(ValidateTest, RejectsBadGpuMemoryUtilization) {
  for (double bad : {0.0, -0.5, 1.5}) {
    Config cfg = Valid();
    cfg.models[0].gpu_memory_utilization = bad;
    EXPECT_FALSE(cfg.Validate(catalog, 1).ok()) << bad;
  }
}

TEST_F(ValidateTest, RejectsOutOfRangeGpu) {
  Config cfg = Valid();
  cfg.models[0].gpu = 2;
  EXPECT_FALSE(cfg.Validate(catalog, 2).ok());
  cfg.models[0].gpu = 1;
  EXPECT_TRUE(cfg.Validate(catalog, 2).ok());
  cfg.models[0].gpu = -1;
  EXPECT_FALSE(cfg.Validate(catalog, 2).ok());
}

TEST_F(ValidateTest, RejectsBadGlobals) {
  Config cfg = Valid();
  cfg.global.response_timeout_s = 0;
  EXPECT_FALSE(cfg.Validate(catalog, 1).ok());
  cfg = Valid();
  cfg.global.queue_capacity = 0;
  EXPECT_FALSE(cfg.Validate(catalog, 1).ok());
  cfg = Valid();
  cfg.global.snapshot_budget_gib = 0;
  EXPECT_FALSE(cfg.Validate(catalog, 1).ok());
  cfg = Valid();
  cfg.models[0].init_timeout_s = 0;
  EXPECT_FALSE(cfg.Validate(catalog, 1).ok());
}

TEST_F(ValidateTest, RejectsMonitorIntervalBelowOneNanosecond) {
  // The GPU monitor samples on a grid of this interval and aborts on a
  // zero step, so Validate must reject anything that truncates to 0 ns.
  for (double interval : {0.0, -1.0, 1e-10}) {
    Config cfg = Valid();
    cfg.global.monitor_interval_s = interval;
    Status s = cfg.Validate(catalog, 1);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << interval;
    EXPECT_NE(s.message().find("monitor_interval_s"), std::string::npos)
        << s;
  }
  Config cfg = Valid();
  cfg.global.monitor_interval_s = 1e-6;
  EXPECT_TRUE(cfg.Validate(catalog, 1).ok());
}

TEST_F(ValidateTest, RejectsFaultRuleOnRemovedMigratePoint) {
  // Removed points are not registered: a plan naming one fails to load
  // instead of arming nothing.
  for (const std::string point : {"cluster.migrate", "node.partition"}) {
    Config cfg = Valid();
    fault::FaultRule rule;
    rule.point = point;
    cfg.fault.plan.rules.push_back(rule);
    Status s = cfg.Validate(catalog, 1);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << point;
    EXPECT_NE(s.message().find("unregistered point \"" + point + "\""),
              std::string::npos)
        << s;
    cfg.fault.plan.rules[0].point = "cluster.fetch";
    EXPECT_TRUE(cfg.Validate(catalog, 1).ok());
  }
}

TEST(ConfigTest, ParsesClusterSection) {
  auto cfg = Config::FromJsonText(R"({
    "models": [{"model": "llama-3.2-1b-fp16", "node": 1}],
    "cluster": {
      "nodes": 3,
      "node_gpus": [2, 1, 1],
      "replicate": 2,
      "placement": "random"
    }
  })");
  ASSERT_TRUE(cfg.ok()) << cfg.status();
  EXPECT_EQ(cfg->cluster.nodes, 3);
  ASSERT_EQ(cfg->cluster.node_gpus.size(), 3u);
  EXPECT_EQ(cfg->cluster.node_gpus[0], 2);
  EXPECT_EQ(cfg->cluster.replicate, 2);
  EXPECT_EQ(cfg->cluster.placement, "random");
  EXPECT_EQ(cfg->models[0].node, 1);
  // `standby` is internal cluster bookkeeping, never parsed from JSON.
  EXPECT_FALSE(cfg->models[0].standby);
  // Per-node GPU counts resolve through NodeGpuCount.
  EXPECT_EQ(cfg->NodeGpuCount(0), 2);
  EXPECT_EQ(cfg->NodeGpuCount(1), 1);
  EXPECT_EQ(cfg->NodeGpuCount(7), 0);  // out of range
}

TEST(ConfigTest, ClusterDefaultsAreSingleNode) {
  auto cfg = Config::FromJsonText(
      R"({"models": [{"model": "llama-3.2-1b-fp16"}]})");
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(cfg->cluster.nodes, 1);
  EXPECT_TRUE(cfg->cluster.node_gpus.empty());
  EXPECT_EQ(cfg->cluster.placement, "locality");
  EXPECT_EQ(cfg->NodeGpuCount(0), 1);  // empty list = one GPU per node
}

TEST(ConfigTest, ClusterParseErrors) {
  // node_gpus entries must be numbers.
  EXPECT_FALSE(Config::FromJsonText(R"({
    "models": [{"model": "m"}],
    "cluster": {"nodes": 2, "node_gpus": ["two", 1]}
  })")
                   .ok());
}

TEST_F(ValidateTest, RejectsBadClusterTopology) {
  Config cfg = Valid();
  cfg.cluster.nodes = 0;
  EXPECT_EQ(cfg.Validate(catalog, 1).code(), StatusCode::kInvalidArgument);
  cfg.cluster.nodes = -3;
  EXPECT_FALSE(cfg.Validate(catalog, 1).ok());

  // node_gpus must list one entry per node when present.
  cfg = Valid();
  cfg.cluster.nodes = 3;
  cfg.cluster.node_gpus = {1, 1};
  EXPECT_FALSE(cfg.Validate(catalog, 1).ok());
  cfg.cluster.node_gpus = {1, 1, 1};
  EXPECT_TRUE(cfg.Validate(catalog, 1).ok());
  cfg.cluster.node_gpus = {1, 0, 1};
  EXPECT_FALSE(cfg.Validate(catalog, 1).ok());
}

TEST_F(ValidateTest, RejectsBadReplicationAndPolicy) {
  Config cfg = Valid();
  cfg.cluster.nodes = 2;
  cfg.cluster.replicate = 0;
  EXPECT_FALSE(cfg.Validate(catalog, 1).ok());
  cfg.cluster.replicate = 3;  // more copies than nodes
  EXPECT_FALSE(cfg.Validate(catalog, 1).ok());
  cfg.cluster.replicate = 2;
  EXPECT_TRUE(cfg.Validate(catalog, 1).ok());

  cfg = Valid();
  cfg.cluster.nodes = 2;
  cfg.cluster.placement = "closest";
  EXPECT_FALSE(cfg.Validate(catalog, 1).ok());
}

TEST_F(ValidateTest, ChecksModelPlacementAgainstHomeNode) {
  Config cfg = Valid();
  cfg.cluster.nodes = 2;
  cfg.cluster.node_gpus = {1, 2};
  cfg.models[0].node = 2;  // out of range
  EXPECT_FALSE(cfg.Validate(catalog, 1).ok());
  cfg.models[0].node = -1;
  EXPECT_FALSE(cfg.Validate(catalog, 1).ok());

  // gpu/tp bounds check against the *home node's* GPU count, not the
  // single-machine gpu_count argument.
  cfg.models[0].node = 1;
  cfg.models[0].gpu = 1;
  EXPECT_TRUE(cfg.Validate(catalog, 1).ok());
  cfg.models[0].node = 0;
  EXPECT_FALSE(cfg.Validate(catalog, 1).ok());
}

TEST(ConfigTest, ParsesStreamingAndAdmissionSections) {
  auto cfg = Config::FromJsonText(R"({
    "global": {"stream_tokens": true, "stream_chunk_tokens": 8},
    "admission": {
      "enabled": true,
      "default_budget_s": 3.5,
      "class_budget_s": {"gold": 30, "batch": 0.25},
      "ewma_alpha": 0.4,
      "initial_service_s": 0.75,
      "swap_penalty_s": 2.0
    },
    "models": [{"model": "llama-3.2-1b-fp16"}]
  })");
  ASSERT_TRUE(cfg.ok()) << cfg.status();
  EXPECT_TRUE(cfg->global.stream_tokens);
  EXPECT_EQ(cfg->global.stream_chunk_tokens, 8);
  EXPECT_TRUE(cfg->admission.enabled);
  EXPECT_DOUBLE_EQ(cfg->admission.default_budget_s, 3.5);
  EXPECT_DOUBLE_EQ(cfg->admission.class_budget_s.at("gold"), 30.0);
  EXPECT_DOUBLE_EQ(cfg->admission.class_budget_s.at("batch"), 0.25);
  EXPECT_DOUBLE_EQ(cfg->admission.ewma_alpha, 0.4);
  EXPECT_DOUBLE_EQ(cfg->admission.initial_service_s, 0.75);
  EXPECT_DOUBLE_EQ(cfg->admission.swap_penalty_s, 2.0);
}

TEST(ConfigTest, StreamingAndAdmissionDefaultOff) {
  auto cfg = Config::FromJsonText(
      R"({"models": [{"model": "llama-3.2-1b-fp16"}]})");
  ASSERT_TRUE(cfg.ok());
  EXPECT_FALSE(cfg->global.stream_tokens);
  EXPECT_EQ(cfg->global.stream_chunk_tokens, 16);
  EXPECT_FALSE(cfg->admission.enabled);
  EXPECT_TRUE(cfg->admission.class_budget_s.empty());
}

TEST(ConfigTest, AdmissionParseAndValidateErrors) {
  // Non-number class budget is a parse error.
  EXPECT_FALSE(Config::FromJsonText(R"({
    "admission": {"class_budget_s": {"gold": "fast"}},
    "models": [{"model": "llama-3.2-1b-fp16"}]
  })").ok());

  model::ModelCatalog catalog = model::ModelCatalog::Default();
  Config cfg;
  ModelEntry m;
  m.model_id = "llama-3.2-1b-fp16";
  m.engine = "ollama";
  cfg.models.push_back(m);
  ASSERT_TRUE(cfg.Validate(catalog, 1).ok()) << cfg.Validate(catalog, 1);

  cfg.global.stream_chunk_tokens = 0;
  EXPECT_FALSE(cfg.Validate(catalog, 1).ok());
  cfg.global.stream_chunk_tokens = 16;

  cfg.admission.default_budget_s = 0;
  EXPECT_FALSE(cfg.Validate(catalog, 1).ok());
  cfg.admission.default_budget_s = 2.0;

  cfg.admission.class_budget_s["gold"] = -1;
  EXPECT_FALSE(cfg.Validate(catalog, 1).ok());
  cfg.admission.class_budget_s.clear();

  cfg.admission.ewma_alpha = 0;
  EXPECT_FALSE(cfg.Validate(catalog, 1).ok());
  cfg.admission.ewma_alpha = 1.5;
  EXPECT_FALSE(cfg.Validate(catalog, 1).ok());
  cfg.admission.ewma_alpha = 0.2;

  cfg.admission.initial_service_s = 0;
  EXPECT_FALSE(cfg.Validate(catalog, 1).ok());
  cfg.admission.initial_service_s = 0.5;

  cfg.admission.swap_penalty_s = -0.1;
  EXPECT_FALSE(cfg.Validate(catalog, 1).ok());
  cfg.admission.swap_penalty_s = 0;

  EXPECT_TRUE(cfg.Validate(catalog, 1).ok());
}

TEST(MetricsTest, Aggregations) {
  Metrics m;
  m.ForModel("a").completed = 3;
  m.ForModel("a").rejected = 1;
  m.ForModel("a").failed = 2;
  m.ForModel("a").expired = 1;
  m.ForModel("a").ttft_s.Add(1.0);
  m.ForModel("b").completed = 4;
  m.ForModel("b").ttft_s.Add(3.0);
  EXPECT_EQ(m.TotalCompleted(), 7u);
  EXPECT_EQ(m.TotalRejected(), 1u);
  EXPECT_EQ(m.TotalFailed(), 2u);
  EXPECT_EQ(m.TotalExpired(), 1u);
  Samples all = m.AllTtft();
  EXPECT_EQ(all.count(), 2u);
  EXPECT_DOUBLE_EQ(all.mean(), 2.0);
}

// A request that failed and one that expired are two outcomes: neither
// total counts the other, so a ledger that adds both counts each once.
TEST(MetricsTest, FailedAndExpiredCountSeparately) {
  Metrics m;
  Metrics::ModelHandle& handle = m.Handle("a");
  m.RecordFailed(handle);
  m.RecordExpired(handle);
  EXPECT_EQ(m.TotalFailed(), 1u);
  EXPECT_EQ(m.TotalExpired(), 1u);
}

}  // namespace
}  // namespace swapserve::core
