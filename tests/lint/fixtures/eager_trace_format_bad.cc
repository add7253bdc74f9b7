// Fixture: eager-trace-format must fire on string building inside trace
// calls — the arguments are evaluated before the recorder can check that
// it is on, so these format on every call, traced or not.
namespace fixture {

void Swap(obs::Observability* obs, Backend& victim, int gpu, Bytes bytes,
          const Status& status) {
  obs::Span span = obs::StartSpan(obs, "swap", "ckpt", "gpu" + gpu_name);
  span.AddArg("bytes", std::to_string(bytes.count()));
  span.AddArg("status", status.ToString());
  if (other.active()) span.AddArg("status", status.ToString());
  obs::Instant(obs, "preempt:" + victim.name(), "controller", victim.name(),
               {{"gpu", std::to_string(gpu)}});
  obs::Instant(obs, victim.name() + ":evicted", "controller", victim.name());
}

}  // namespace fixture
