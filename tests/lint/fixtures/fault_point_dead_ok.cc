// Silent twin: every registered point is named at an injector call site,
// one through Evaluate() and one only through NextArmed(); a point with
// no call site yet carries an annotated reason.
namespace fixture {

inline constexpr std::string_view kFaultPointRegistry[] = {
    "node.crash",
    "node.restart",
    // swaplint-ok(fault-point-dead): the injection site lands next
    "node.drain",
};

sim::SimTime Beat(FaultInjector& injector) {
  if (!fault::Evaluate(&injector, "node.crash", "node0").status.ok()) {
    Crash();
  }
  return injector.NextArmed("node.restart", "node0");
}

}  // namespace fixture
