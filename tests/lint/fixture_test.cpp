// swaplint fixture tests: every rule fires on its trigger fixture and
// stays silent on the compliant twin; suppression annotations silence
// exactly the named rule (DESIGN.md §10 and §15). Also covers the
// fault-point registry extraction/coverage helpers, baseline round-trips,
// and the README <-> --list-rules sync.

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint.h"

namespace swaplint {
namespace {

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(SWAPLINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<Diagnostic> LintFixture(const std::string& name) {
  return LintSource(name, ReadFixture(name));
}

int CountRule(const std::vector<Diagnostic>& diags, const std::string& rule) {
  int n = 0;
  for (const Diagnostic& d : diags) {
    if (d.rule == rule) ++n;
  }
  return n;
}

std::string Render(const std::vector<Diagnostic>& diags) {
  std::ostringstream os;
  for (const Diagnostic& d : diags) {
    os << d.file << ":" << d.line << ": [" << d.rule << "] " << d.message
       << "\n";
  }
  return os.str();
}

TEST(SwaplintFixtureTest, CoroRefParamFiresOnReferenceAndPointer) {
  auto diags = LintFixture("coro_ref_param_bad.cc");
  EXPECT_EQ(CountRule(diags, "coro-ref-param"), 2) << Render(diags);
  EXPECT_EQ(diags.size(), 2u) << Render(diags);
}

TEST(SwaplintFixtureTest, CoroRefParamSilentOnValueAndAnnotatedBorrow) {
  auto diags = LintFixture("coro_ref_param_ok.cc");
  EXPECT_TRUE(diags.empty()) << Render(diags);
}

TEST(SwaplintFixtureTest, CoroRefParamFiresOnStringViewAndSpan) {
  auto diags = LintFixture("coro_ref_param_view_bad.cc");
  EXPECT_EQ(CountRule(diags, "coro-ref-param"), 2) << Render(diags);
  EXPECT_EQ(diags.size(), 2u) << Render(diags);
}

TEST(SwaplintFixtureTest, CoroRefParamSilentOnOwnedAndAnnotatedViews) {
  auto diags = LintFixture("coro_ref_param_view_ok.cc");
  EXPECT_TRUE(diags.empty()) << Render(diags);
}

TEST(SwaplintFixtureTest, BorrowAcrossAwaitFiresOnPointerAndAlias) {
  auto diags = LintFixture("borrow_across_await_bad.cc");
  EXPECT_EQ(CountRule(diags, "borrow-across-await"), 2) << Render(diags);
  EXPECT_EQ(diags.size(), 2u) << Render(diags);
}

TEST(SwaplintFixtureTest, BorrowAcrossAwaitSilentOnCopyAndReborrow) {
  auto diags = LintFixture("borrow_across_await_ok.cc");
  EXPECT_TRUE(diags.empty()) << Render(diags);
}

// The real fetch coroutine copies its placeholder before the fault stall;
// holding the borrow instead (a reference to the stored snapshot) must be
// caught.
TEST(SwaplintFixtureTest, BorrowAcrossAwaitFlagsMutatedDoFetch) {
  std::string source = ReadFixture("../../../src/cluster/replication.cpp");
  EXPECT_TRUE(LintSource("replication.cpp", source).empty());
  const std::string copy = "const ckpt::Snapshot snap = *placeholder;";
  const std::size_t at = source.find(copy);
  ASSERT_NE(at, std::string::npos) << "DoFetch no longer copies its borrow";
  source.replace(at, copy.size(), "const ckpt::Snapshot& snap = *placeholder;");
  auto diags = LintSource("replication.cpp", source);
  EXPECT_EQ(CountRule(diags, "borrow-across-await"), 1) << Render(diags);
}

TEST(SwaplintFixtureTest, UnawaitedTaskFiresOnDroppedCall) {
  auto diags = LintFixture("unawaited_task_bad.cc");
  EXPECT_EQ(CountRule(diags, "unawaited-task"), 1) << Render(diags);
}

TEST(SwaplintFixtureTest, UnawaitedTaskSilentOnAwaitAndSpawn) {
  auto diags = LintFixture("unawaited_task_ok.cc");
  EXPECT_TRUE(diags.empty()) << Render(diags);
}

TEST(SwaplintFixtureTest, DiscardedStatusFiresOnDroppedResult) {
  auto diags = LintFixture("discarded_status_bad.cc");
  EXPECT_EQ(CountRule(diags, "discarded-status"), 1) << Render(diags);
}

TEST(SwaplintFixtureTest, DiscardedStatusSilentOnBindingAndVoidCast) {
  auto diags = LintFixture("discarded_status_ok.cc");
  EXPECT_TRUE(diags.empty()) << Render(diags);
}

TEST(SwaplintFixtureTest, GuardAcrossAwaitFiresOnLiveGuard) {
  auto diags = LintFixture("guard_across_await_bad.cc");
  EXPECT_EQ(CountRule(diags, "guard-across-await"), 1) << Render(diags);
}

TEST(SwaplintFixtureTest, GuardAcrossAwaitSilentOnScopedReleasedExclusive) {
  auto diags = LintFixture("guard_across_await_ok.cc");
  EXPECT_TRUE(diags.empty()) << Render(diags);
}

TEST(SwaplintFixtureTest, LockOrderFiresOnUnorderedPair) {
  auto diags = LintFixture("lock_order_bad.cc");
  EXPECT_EQ(CountRule(diags, "lock-order"), 1) << Render(diags);
}

TEST(SwaplintFixtureTest, LockOrderSilentWithNameOrderedSwap) {
  auto diags = LintFixture("lock_order_ok.cc");
  EXPECT_TRUE(diags.empty()) << Render(diags);
}

// engine-kind-layer is path-scoped: the test supplies the path each
// fixture is linted under.
TEST(SwaplintFixtureTest, EngineKindLayerFiresUnderSwapPathLayers) {
  const std::string bad = ReadFixture("engine_kind_layer_bad.cc");
  for (const char* path :
       {"src/core/engine_kind.cc", "src/ckpt/engine_kind.cc",
        "src/cluster/engine_kind.cc", "core/engine_kind.cc"}) {
    auto diags = LintSource(path, bad);
    EXPECT_EQ(CountRule(diags, "engine-kind-layer"), 3)
        << path << "\n" << Render(diags);
    EXPECT_EQ(diags.size(), 3u) << path << "\n" << Render(diags);
  }
}

TEST(SwaplintFixtureTest, EngineKindLayerSilentElsewhereAndOnProfileLookup) {
  const std::string bad = ReadFixture("engine_kind_layer_bad.cc");
  for (const char* path : {"src/engine/engine_kind.cc",
                           "src/baseline/engine_kind.cc",
                           "src/score/engine_kind.cc",
                           "bench/engine_kind.cc"}) {
    auto diags = LintSource(path, bad);
    EXPECT_TRUE(diags.empty()) << path << "\n" << Render(diags);
  }
  auto diags = LintSource("src/core/engine_kind.cc",
                          ReadFixture("engine_kind_layer_ok.cc"));
  EXPECT_TRUE(diags.empty()) << Render(diags);
}

TEST(SwaplintFixtureTest, AnnotationsSuppressTheNamedRule) {
  auto diags = LintFixture("suppression.cc");
  EXPECT_TRUE(diags.empty()) << Render(diags);
}

TEST(SwaplintFixtureTest, WrongRuleAnnotationDoesNotSuppress) {
  auto diags = LintFixture("suppression_mismatch.cc");
  EXPECT_EQ(CountRule(diags, "coro-ref-param"), 1) << Render(diags);
}

TEST(SwaplintFixtureTest, SpawnRefCaptureFiresOnByRefLambda) {
  auto diags = LintFixture("spawn_ref_capture_bad.cc");
  EXPECT_EQ(CountRule(diags, "spawn-ref-capture"), 2) << Render(diags);
}

TEST(SwaplintFixtureTest, SpawnRefCaptureSilentOnValueAndNonCoroutine) {
  auto diags = LintFixture("spawn_ref_capture_ok.cc");
  EXPECT_TRUE(diags.empty()) << Render(diags);
}

TEST(SwaplintFixtureTest, StaleStateFiresOnUncheckedMutation) {
  auto diags = LintFixture("stale_state_after_await_bad.cc");
  // One Mark*() transition plus two snapshot-handle assignments.
  EXPECT_EQ(CountRule(diags, "stale-state-after-await"), 3) << Render(diags);
}

TEST(SwaplintFixtureTest, StaleStateSilentWithRecheckHelperOrTailCall) {
  auto diags = LintFixture("stale_state_after_await_ok.cc");
  EXPECT_TRUE(diags.empty()) << Render(diags);
}

TEST(SwaplintFixtureTest, FaultPointNameCatchesSeededTypo) {
  auto diags = LintFixture("fault_point_name_bad.cc");
  // "ckpt.swap_uot" at the Evaluate site, "engine.crahs" at the NextArmed
  // site, "engine.crsh" at the assignment.
  EXPECT_EQ(CountRule(diags, "fault-point-name"), 3) << Render(diags);
}

TEST(SwaplintFixtureTest, FaultPointNameSilentOnRegisteredAndNonPointShapes) {
  auto diags = LintFixture("fault_point_name_ok.cc");
  EXPECT_TRUE(diags.empty()) << Render(diags);
}

TEST(SwaplintFixtureTest, FaultPointDeadFiresOnPointNoInjectorCallNames) {
  auto diags = LintFixture("fault_point_dead_bad.cc");
  // "node.partition": a plan arms it and fires() reads it, but no
  // Evaluate()/NextArmed() call names it.
  ASSERT_EQ(CountRule(diags, "fault-point-dead"), 1) << Render(diags);
  EXPECT_EQ(diags.size(), 1u) << Render(diags);
  EXPECT_EQ(diags[0].line, 8);
  EXPECT_NE(diags[0].message.find("node.partition"), std::string::npos);
}

TEST(SwaplintFixtureTest, FaultPointDeadSilentOnCalledAndAnnotatedPoints) {
  auto diags = LintFixture("fault_point_dead_ok.cc");
  EXPECT_TRUE(diags.empty()) << Render(diags);
}

TEST(SwaplintFixtureTest, UnorderedIterationFiresOnRangeFor) {
  auto diags = LintFixture("unordered_iteration_bad.cc");
  EXPECT_EQ(CountRule(diags, "unordered-iteration"), 2) << Render(diags);
}

TEST(SwaplintFixtureTest, UnorderedIterationSilentOnOrderedAndSortedCopy) {
  auto diags = LintFixture("unordered_iteration_ok.cc");
  EXPECT_TRUE(diags.empty()) << Render(diags);
}

TEST(SwaplintFixtureTest, NondeterministicSourceFiresOnClockAndEntropy) {
  auto diags = LintFixture("nondeterministic_source_bad.cc");
  // system_clock, random_device, rand(), srand().
  EXPECT_EQ(CountRule(diags, "nondeterministic-source"), 4) << Render(diags);
}

TEST(SwaplintFixtureTest, NondeterministicSourceSilentOnSimTimeAndSeededRng) {
  auto diags = LintFixture("nondeterministic_source_ok.cc");
  EXPECT_TRUE(diags.empty()) << Render(diags);
}

TEST(SwaplintFixtureTest, PointerOrderFiresOnPointerKeys) {
  auto diags = LintFixture("pointer_order_bad.cc");
  EXPECT_EQ(CountRule(diags, "pointer-order"), 2) << Render(diags);
}

TEST(SwaplintFixtureTest, PointerOrderSilentOnPointerValuesAndIdKeys) {
  auto diags = LintFixture("pointer_order_ok.cc");
  EXPECT_TRUE(diags.empty()) << Render(diags);
}

TEST(SwaplintFixtureTest, EagerTraceFormatFiresOnStringBuildingArgs) {
  auto diags = LintFixture("eager_trace_format_bad.cc");
  // "gpu" + in StartSpan, two std::to_string, two ToString (one guarded by
  // a different span's active()), "preempt:" + and + ":evicted".
  EXPECT_EQ(CountRule(diags, "eager-trace-format"), 7) << Render(diags);
  EXPECT_EQ(diags.size(), 7u) << Render(diags);
}

TEST(SwaplintFixtureTest, EagerTraceFormatSilentOnNumbersAndPrefixedNames) {
  auto diags = LintFixture("eager_trace_format_ok.cc");
  EXPECT_TRUE(diags.empty()) << Render(diags);
}

TEST(SwaplintFixtureTest, PollingLoopFiresOnDelayFirstWhileLoops) {
  auto diags = LintFixture("polling_loop_bad.cc");
  EXPECT_EQ(CountRule(diags, "polling-loop"), 2) << Render(diags);
  EXPECT_EQ(diags.size(), 2u) << Render(diags);
}

TEST(SwaplintFixtureTest, PollingLoopSilentOnParkedAndTimedLoops) {
  auto diags = LintFixture("polling_loop_ok.cc");
  EXPECT_TRUE(diags.empty()) << Render(diags);
}

TEST(SwaplintFixtureTest, V2SuppressionsMatchExactRuleName) {
  auto diags = LintFixture("suppression_v2.cc");
  EXPECT_EQ(CountRule(diags, "spawn-ref-capture"), 0) << Render(diags);
  EXPECT_EQ(CountRule(diags, "stale-state-after-await"), 0) << Render(diags);
  // The second loop is annotated with the wrong rule name.
  EXPECT_EQ(CountRule(diags, "unordered-iteration"), 1) << Render(diags);
}

// --- Fault-point registry helpers ------------------------------------------

constexpr std::string_view kRegistrySource = R"(
namespace swapserve::fault {
inline constexpr std::string_view kFaultPointRegistry[] = {
    "ckpt.swap_out",
    "engine.crash",
    "ghost.point",
};
}  // namespace swapserve::fault
)";

TEST(SwaplintRegistryTest, ExtractsNamesFromRegistryInitializer) {
  std::vector<std::string> names = ExtractFaultPointNames(kRegistrySource);
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "ckpt.swap_out");
  EXPECT_EQ(names[1], "engine.crash");
  EXPECT_EQ(names[2], "ghost.point");
}

TEST(SwaplintRegistryTest, CoverageReportsDeliberatelyOmittedPoint) {
  const std::vector<std::string> registry = {"ckpt.swap_out", "engine.crash",
                                             "ghost.point"};
  const std::string_view chaos =
      "FaultRule{.point = \"ckpt.swap_out\"};\n"
      "FaultRule{.point = \"engine.crash\"};\n";
  std::vector<std::string> unarmed = UnarmedFaultPoints(registry, {chaos});
  ASSERT_EQ(unarmed.size(), 1u);
  EXPECT_EQ(unarmed[0], "ghost.point");
}

TEST(SwaplintRegistryTest, LinterEmitsCoverageDiagnosticForUnarmedPoint) {
  Linter linter;
  linter.AddFile("fault_points.h", kRegistrySource);
  linter.AddChaosFile("chaos.cc", "rule.point = \"ckpt.swap_out\";\n"
                                  "rule.point = \"engine.crash\";\n");
  auto diags = linter.Run();
  ASSERT_EQ(CountRule(diags, "fault-point-coverage"), 1) << Render(diags);
  const auto coverage =
      std::find_if(diags.begin(), diags.end(), [](const Diagnostic& d) {
        return d.rule == "fault-point-coverage";
      });
  EXPECT_NE(coverage->message.find("ghost.point"), std::string::npos);
  EXPECT_EQ(coverage->file, "fault_points.h");
}

TEST(SwaplintRegistryTest, NoCoverageDiagnosticsWithoutChaosFiles) {
  Linter linter;
  linter.AddFile("fault_points.h", kRegistrySource);
  auto diags = linter.Run();
  EXPECT_EQ(CountRule(diags, "fault-point-coverage"), 0) << Render(diags);
}

TEST(SwaplintRegistryTest, RealRegistryMatchesRuntimeHeader) {
  // The linter parses the same header Config::Validate compiles against;
  // drifting the two is a build error here.
  const std::string content = ReadFixture("../../../src/fault/fault_points.h");
  std::vector<std::string> names = ExtractFaultPointNames(content);
  EXPECT_EQ(names.size(), 14u);
  for (const std::string& n : names) {
    EXPECT_TRUE(n.find('.') != std::string::npos) << n;
  }
}

// --- Baseline support -------------------------------------------------------

TEST(SwaplintBaselineTest, SerializeParseRoundTrip) {
  std::vector<Diagnostic> diags = {
      {"src/a.cc", 10, "coro-ref-param", "msg"},
      {"src/b.cc", 20, "pointer-order", "msg"},
  };
  std::set<std::string> parsed = ParseBaseline(SerializeBaseline(diags));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed.count("src/a.cc:10: [coro-ref-param]"), 1u);
  EXPECT_EQ(parsed.count("src/b.cc:20: [pointer-order]"), 1u);
}

TEST(SwaplintBaselineTest, ApplyDropsOnlyBaselinedFindings) {
  std::vector<Diagnostic> diags = {
      {"src/a.cc", 10, "coro-ref-param", "msg"},
      {"src/b.cc", 20, "pointer-order", "msg"},
  };
  std::set<std::string> baseline = {"src/a.cc:10: [coro-ref-param]",
                                    "src/gone.cc:1: [lock-order]"};
  EXPECT_EQ(ApplyBaseline(diags, baseline), 1u);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].file, "src/b.cc");
}

TEST(SwaplintBaselineTest, ParserIgnoresCommentsAndBlankLines) {
  std::set<std::string> parsed = ParseBaseline(
      "# header\n\n  src/a.cc:1: [lock-order]  \n# trailing\n");
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed.count("src/a.cc:1: [lock-order]"), 1u);
}

// --- Rule catalog / docs sync -----------------------------------------------

TEST(SwaplintFixtureTest, RuleListCoversAllSeventeenRules) {
  const std::vector<RuleInfo>& rules = Rules();
  ASSERT_EQ(rules.size(), 17u);
  std::vector<std::string> names;
  for (const RuleInfo& r : rules) names.emplace_back(r.name);
  for (const char* expected :
       {"coro-ref-param", "spawn-ref-capture", "stale-state-after-await",
        "unawaited-task", "discarded-status", "guard-across-await",
        "borrow-across-await", "lock-order", "fault-point-name",
        "fault-point-coverage", "fault-point-dead", "unordered-iteration",
        "nondeterministic-source", "pointer-order", "eager-trace-format",
        "polling-loop", "engine-kind-layer"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(SwaplintDocsTest, ReadmeListsEveryRule) {
  // README's static-analysis table is wired to --list-rules by this test:
  // adding a rule without documenting it fails here.
  const std::string readme = ReadFixture("../../../README.md");
  for (const RuleInfo& r : Rules()) {
    EXPECT_NE(readme.find("`" + std::string(r.name) + "`"),
              std::string::npos)
        << "README.md does not mention rule " << r.name;
  }
}

}  // namespace
}  // namespace swaplint
