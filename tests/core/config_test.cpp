#include "core/config.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "config_rows.h"
#include "core/metrics.h"

namespace swapserve::core {
namespace {

// Every field of a section is one row: a field added without a row fails
// to compile here.
using testing::FieldCount;
using testing::SettingCount;
static_assert(FieldCount<Config>() == SettingCount<Config>());
static_assert(FieldCount<GlobalConfig>() == SettingCount<GlobalConfig>());
static_assert(FieldCount<AdmissionConfig>() ==
              SettingCount<AdmissionConfig>());
static_assert(FieldCount<FaultConfig>() == SettingCount<FaultConfig>());
static_assert(FieldCount<fault::FaultRule>() ==
              SettingCount<fault::FaultRule>());
static_assert(FieldCount<ClusterConfig>() == SettingCount<ClusterConfig>());
// ModelEntry::standby is the one field no key sets: the cluster assembly
// marks standby replicas.
static_assert(FieldCount<ModelEntry>() == SettingCount<ModelEntry>() + 1);

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
      {"models[0]", "image", "\"no-such-image:latest\"", "never read"},
  };
  for (const Case& c : cases) {
    const std::string key = "\"" + c.key + "\": " + c.value;
    auto cfg = Config::FromJsonText(
        c.section == "models[0]"
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

// A misspelled key or section, or a value of the wrong type, fails at load
// naming its path, instead of loading as the default. Each row is one
// config and the text its error must contain.
TEST(ConfigTest, TyposAndWrongTypesFailAtLoad) {
  struct Case {
    std::string config, error;
  };
  const Case cases[] = {
      // The four probes that used to load as the defaults.
      {R"({"global": {"snapshot_prefech": true}, "models": [{"model": "m"}]})",
       R"(unknown key "global.snapshot_prefech" (did you mean )"
       R"("global.snapshot_prefetch"?))"},
      {R"({"globl": {"snapshot_prefetch": true}, "models": [{"model": "m"}]})",
       R"(unknown section "globl" (did you mean "global"?))"},
      {R"({"global": {"snapshot_prefetch": "yes"},)"
       R"( "models": [{"model": "m"}]})",
       "global.snapshot_prefetch must be a boolean"},
      {R"({"global": {"host_cache_mib": "lots"}, "models": [{"model": "m"}]})",
       "global.host_cache_mib must be a number"},
      // Every section and list entry is closed.
      {R"({"models": [{"model": "m", "engnie": "vllm"}]})",
       R"(unknown key "models[0].engnie" (did you mean "models[0].engine"?))"},
      {R"({"models": [{"model": "m"}, {"model": "n", "gpu": 1.5}]})",
       "models[1].gpu must be an integer"},
      {R"({"cluster": {"nodse": 2}, "models": [{"model": "m"}]})",
       R"(unknown key "cluster.nodse" (did you mean "cluster.nodes"?))"},
      {R"({"fault": {"rules": [{"point": "engine.crash", "probabilty": 1}]},
           "models": [{"model": "m"}]})",
       R"(unknown key "fault.rules[0].probabilty" (did you mean )"
       R"("fault.rules[0].probability"?))"},
      {R"({"admission": {"enabled": 1}, "models": [{"model": "m"}]})",
       "admission.enabled must be a boolean"},
      {R"({"recovery": {"retries": 3}, "models": [{"model": "m"}]})",
       R"(unknown key "recovery.retries")"},
      // No known key within edit distance 2: no suggestion.
      {R"({"global": {"colour": "blue"}, "models": [{"model": "m"}]})",
       R"(unknown key "global.colour")"},
      {R"({"global": 3, "models": [{"model": "m"}]})",
       "global must be an object"},
      {R"({"models": {}})", "models must be an array"},
      // An integer that does not fit its field used to wrap silently.
      {R"({"cluster": {"nodes": 4294967297}, "models": [{"model": "m"}]})",
       "cluster.nodes must be an integer in [-2147483648, 2147483647] "
       "(got 4294967297)"},
      {R"({"cluster": {"replicate": 4294967297},)"
       R"( "models": [{"model": "m"}]})",
       "cluster.replicate must be an integer in ["},
      {R"({"models": [{"model": "m", "gpu": 4294967296}]})",
       "models[0].gpu must be an integer in ["},
      {R"({"models": [{"model": "m", "tp": 4294967297}]})",
       "models[0].tp must be an integer in ["},
      {R"({"fault": {"seed": -1}, "models": [{"model": "m"}]})",
       "fault.seed must be an integer in [0, 18446744073709551615] (got -1)"},
  };
  for (const Case& c : cases) {
    auto cfg = Config::FromJsonText(c.config);
    ASSERT_FALSE(cfg.ok()) << c.config;
    EXPECT_EQ(cfg.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(cfg.status().message().find(c.error), std::string::npos)
        << cfg.status() << "\n  want: " << c.error;
  }
  auto far = Config::FromJsonText(
      R"({"global": {"colour": "blue"}, "models": [{"model": "m"}]})");
  EXPECT_EQ(far.status().message().find("did you mean"), std::string::npos)
      << far.status();
}

// The top-level "bench" section belongs to bench_e2e, which reads the
// file: the server passes it through unread, whatever it holds.
TEST(ConfigTest, BenchSectionPassesThroughUnread) {
  auto cfg = Config::FromJsonText(R"({
    "bench": {"name": "w", "entry": "router", "anything": [1, {"x": 2}]},
    "global": {"stream_tokens": true},
    "models": [{"model": "m"}]
  })");
  ASSERT_TRUE(cfg.ok()) << cfg.status();
  EXPECT_TRUE(cfg->global.stream_tokens);
  EXPECT_FALSE(Config::FromJsonText(
                   R"({"bench": 1, "models": [{"model": "m"}]})")
                   .ok());
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
    cfg.fault.rules.push_back(rule);
    Status s = cfg.Validate(catalog, 1);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << point;
    EXPECT_NE(s.message().find("unregistered point \"" + point + "\""),
              std::string::npos)
        << s;
    cfg.fault.rules[0].point = "cluster.fetch";
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

// Every setting row: its key, set in JSON to a value other than the
// default, lands in its field.
class RowRoundTripTest : public ::testing::Test {
 protected:
  // `wrap` places one object of the section in a whole config; `base`
  // holds the keys that object needs; `locate` finds the section in the
  // parsed config.
  template <typename S>
  void RoundTrip(std::map<std::string, std::string> base,
                 const std::function<std::string(std::string)>& wrap,
                 const std::function<const S&(const Config&)>& locate) {
    const S defaults{};
    testing::ForEachLeafRow<S>([&](const schema::Row<S>& row, auto member) {
      const auto want = testing::NonDefault(row.range, defaults.*member);
      std::map<std::string, std::string> keys = base;
      keys[std::string(row.key)] = testing::ToJson(want);
      std::string object = "{";
      for (const auto& [key, value] : keys) {
        object += (object.size() > 1 ? ", \"" : "\"") + key + "\": " + value;
      }
      const std::string text = wrap(object + "}");
      auto cfg = Config::FromJsonText(text);
      ASSERT_TRUE(cfg.ok()) << text << "\n" << cfg.status();
      EXPECT_EQ(locate(*cfg).*member, want) << text;
      ++rows;
    });
  }
  int rows = 0;
};

TEST_F(RowRoundTripTest, EveryKeyLandsInItsField) {
  const std::string model = R"([{"model": "m"}])";
  RoundTrip<GlobalConfig>(
      {}, [&](std::string o) { return R"({"global": )" + o +
                                      R"(, "models": )" + model + "}"; },
      [](const Config& c) -> const GlobalConfig& { return c.global; });
  RoundTrip<AdmissionConfig>(
      {}, [&](std::string o) { return R"({"admission": )" + o +
                                      R"(, "models": )" + model + "}"; },
      [](const Config& c) -> const AdmissionConfig& { return c.admission; });
  RoundTrip<FaultConfig>(
      {}, [&](std::string o) { return R"({"fault": )" + o +
                                      R"(, "models": )" + model + "}"; },
      [](const Config& c) -> const FaultConfig& { return c.fault; });
  RoundTrip<fault::FaultRule>(
      {{"point", R"("engine.crash")"}},
      [&](std::string o) { return R"({"fault": {"rules": [)" + o +
                                  R"(]}, "models": )" + model + "}"; },
      [](const Config& c) -> const fault::FaultRule& {
        return c.fault.rules.at(0);
      });
  RoundTrip<ClusterConfig>(
      {}, [&](std::string o) { return R"({"cluster": )" + o +
                                      R"(, "models": )" + model + "}"; },
      [](const Config& c) -> const ClusterConfig& { return c.cluster; });
  RoundTrip<ModelEntry>(
      {{"model", R"("m")"}},
      [](std::string o) { return R"({"models": [)" + o + "]}"; },
      [](const Config& c) -> const ModelEntry& { return c.models.at(0); });
  // 10 global, 6 admission, 1 fault, 9 rule, 10 cluster and 8 model keys.
  EXPECT_EQ(rows, 44);
}

// Every row with a range: the first value outside it fails Validate naming
// the row's path, and the boundary value inside passes.
class RowRangeTest : public ::testing::Test {
 protected:
  model::ModelCatalog catalog = model::ModelCatalog::Default();

  // Valid, with one element in every list and map a row ranges over.
  static Config Base() {
    Config cfg;
    ModelEntry m;
    m.model_id = "llama-3.2-1b-fp16";
    cfg.models.push_back(m);
    fault::FaultRule rule;
    rule.point = "engine.crash";
    cfg.fault.rules.push_back(rule);
    cfg.admission.class_budget_s["gold"] = 1;
    cfg.cluster.node_gpus = {1};
    return cfg;
  }

  template <typename T>
  static T Below(double bound) {
    if constexpr (std::is_integral_v<T>) return static_cast<T>(bound) - 1;
    return std::nextafter(bound, -schema::kInf);
  }
  template <typename T>
  static T Above(double bound) {
    if constexpr (std::is_integral_v<T>) return static_cast<T>(bound) + 1;
    return std::nextafter(bound, schema::kInf);
  }

  // Sets the value `v` through `set` and validates.
  template <typename V>
  void Expect(bool valid, const std::string& path, V v,
              const std::function<void(Config&, V)>& set) {
    Config cfg = Base();
    set(cfg, v);
    const Status s = cfg.Validate(catalog, 1);
    if (valid) {
      EXPECT_TRUE(s.ok()) << path << " = " << testing::ToJson(v) << ": " << s;
    } else {
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument)
          << path << " = " << testing::ToJson(v);
      EXPECT_NE(s.message().find(path + " must be"), std::string::npos)
          << path << ": " << s;
    }
  }

  template <typename S>
  void CheckSection(const std::string& prefix,
                    const std::function<S&(Config&)>& locate) {
    testing::ForEachLeafRow<S>([&](const schema::Row<S>& row, auto member) {
      const schema::Range& r = row.range;
      if (!testing::Bounded(r)) return;
      ++rows;
      using T = std::remove_cvref_t<decltype(std::declval<S&>().*member)>;
      std::string path = prefix + "." + std::string(row.key);
      if constexpr (std::is_same_v<T, std::string>) {
        const std::function<void(Config&, std::string)> set =
            [&](Config& c, std::string v) { locate(c).*member = v; };
        Expect<std::string>(false, path, "", set);
        for (std::string_view choice : r.choices) {
          Expect(true, path, std::string(choice), set);
        }
      } else if constexpr (std::is_same_v<T, bool> ||
                           std::is_same_v<T, StatusCode>) {
        ADD_FAILURE() << path << ": a range on a value with no order";
      } else {
        // A list's range holds per element, a map's per value.
        using V = std::conditional_t<
            std::is_same_v<T, std::vector<int>>, int,
            std::conditional_t<std::is_same_v<T, ClassBudgets>, double, T>>;
        if constexpr (std::is_same_v<T, std::vector<int>>) path += "[0]";
        if constexpr (std::is_same_v<T, ClassBudgets>) path += ".gold";
        const std::function<void(Config&, V)> set = [&](Config& c, V v) {
          if constexpr (std::is_same_v<T, std::vector<int>>) {
            (locate(c).*member)[0] = v;
          } else if constexpr (std::is_same_v<T, ClassBudgets>) {
            (locate(c).*member)["gold"] = v;
          } else {
            locate(c).*member = v;
          }
        };
        if (r.lo > -schema::kInf) {
          Expect<V>(false, path, r.lo_open ? static_cast<V>(r.lo)
                                           : Below<V>(r.lo), set);
          Expect<V>(true, path, r.lo_open ? Above<V>(r.lo)
                                          : static_cast<V>(r.lo), set);
        }
        if (r.hi < schema::kInf) {
          Expect<V>(false, path, r.hi_open ? static_cast<V>(r.hi)
                                           : Above<V>(r.hi), set);
          Expect<V>(true, path, r.hi_open ? Below<V>(r.hi)
                                          : static_cast<V>(r.hi), set);
        }
      }
    });
  }
  int rows = 0;
};

TEST_F(RowRangeTest, FirstValueOutsideFailsAndBoundaryInsidePasses) {
  ASSERT_TRUE(Base().Validate(catalog, 1).ok()) << Base().Validate(catalog, 1);
  CheckSection<GlobalConfig>(
      "global", [](Config& c) -> GlobalConfig& { return c.global; });
  CheckSection<AdmissionConfig>(
      "admission", [](Config& c) -> AdmissionConfig& { return c.admission; });
  CheckSection<FaultConfig>(
      "fault", [](Config& c) -> FaultConfig& { return c.fault; });
  CheckSection<fault::FaultRule>(
      "fault.rules[0]",
      [](Config& c) -> fault::FaultRule& { return c.fault.rules[0]; });
  CheckSection<ClusterConfig>(
      "cluster", [](Config& c) -> ClusterConfig& { return c.cluster; });
  CheckSection<ModelEntry>(
      "models[0]", [](Config& c) -> ModelEntry& { return c.models[0]; });
  // 6 global, 5 admission, 3 rule, 8 cluster and 2 model rows.
  EXPECT_EQ(rows, 24);
}

// The benchmark's workload files load and validate, so a schema change
// that breaks one fails here rather than in a benchmark run.
TEST(ConfigTest, BenchmarkWorkloadsLoadAndValidate) {
  const model::ModelCatalog catalog = model::ModelCatalog::Default();
  int loaded = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(SWAPSERVE_WORKLOADS_DIR)) {
    if (entry.path().extension() != ".json") continue;
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    auto cfg = Config::FromJsonText(text.str());
    ASSERT_TRUE(cfg.ok()) << entry.path() << ": " << cfg.status();
    EXPECT_TRUE(cfg->Validate(catalog, cfg->NodeGpuCount(0)).ok())
        << entry.path() << ": " << cfg->Validate(catalog, cfg->NodeGpuCount(0));
    ++loaded;
  }
  EXPECT_GE(loaded, 4);
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
