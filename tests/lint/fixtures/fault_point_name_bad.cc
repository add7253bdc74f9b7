// Fixture: fault-point-name must fire on the seeded typo — "ckpt.swap_uot"
// is not in the registry, so an Evaluate() against it would silently never
// fire in production. The NextArmed() and assignment forms must be checked
// too.
namespace fixture {

inline constexpr std::string_view kFaultPointRegistry[] = {
    "ckpt.swap_out",
    "engine.crash",
};

Status Checkpoint(FaultInjector* fault) {
  fault::FaultDecision f = fault::Evaluate(fault, "ckpt.swap_uot", "model-a");
  if (!f.status.ok()) return f.status;
  if (fault->NextArmed("engine.crahs", "model-a") == sim::kNever) {
    return Status::Ok();
  }
  return Status::Ok();
}

void Configure(FaultRule& rule) {
  rule.point = "engine.crsh";
}

}  // namespace fixture
