// Fixture: fault-point-dead must fire on "node.partition" — registered,
// armed by a plan and counted with fires(), but no Evaluate()/NextArmed()
// call names it, so no rule arming it can ever fire.
namespace fixture {

inline constexpr std::string_view kFaultPointRegistry[] = {
    "node.crash",
    "node.partition",
};

sim::SimTime Beat(FaultInjector& injector) {
  if (!fault::Evaluate(&injector, "node.crash", "node0").status.ok()) {
    Crash();
  }
  return injector.NextArmed("node.crash", "node0");
}

void Configure(FaultRule& rule, FaultInjector& injector) {
  rule.point = "node.partition";
  Log(injector.fires("node.partition"));
}

}  // namespace fixture
