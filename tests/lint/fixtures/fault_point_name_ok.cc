// Silent twin: registered points pass, and literals that are not shaped
// like a fault point (owner names, span names, uppercase) are ignored even
// at Evaluate() sites.
namespace fixture {

inline constexpr std::string_view kFaultPointRegistry[] = {
    "ckpt.swap_out",
    "engine.crash",
};

Status Checkpoint(FaultInjector* fault) {
  fault::FaultDecision f = fault::Evaluate(fault, "ckpt.swap_out", "model-a");
  if (!f.status.ok()) return f.status;
  if (fault->fires("engine.crash") > 0) return Status::Ok();
  if (fault->NextArmed("engine.crash", "model-a") == sim::kNever) {
    return Status::Ok();
  }
  return Status::Ok();
}

void Configure(FaultRule& rule) {
  rule.point = "engine.crash";
  rule.owner = "node0:node1";
  rule.message = "Power.Loss";
}

}  // namespace fixture
