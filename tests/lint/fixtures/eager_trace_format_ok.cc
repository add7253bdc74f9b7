// Silent twin: numbers passed as numbers, dynamic names as a
// {prefix, suffix} pair the recorder joins only when it records, tracks
// built once outside the call, a status rendered only under
// `if (span.active())`, and string building that is not a trace call
// argument.
namespace fixture {

void Swap(obs::Observability* obs, Backend& victim, int gpu, Bytes bytes,
          const Status& status) {
  const std::string track = "gpu" + std::to_string(gpu);
  obs::Span span = obs::StartSpan(obs, "swap", "ckpt", track);
  span.AddArg("bytes", bytes.count());
  if (span.active()) span.AddArg("status", status.ToString());
  obs::Instant(obs, {"preempt:", victim.name()}, "controller", victim.name(),
               {{"gpu", gpu}, {"victim", victim.name()}});
  SWAP_LOG(kInfo, "controller") << "evicted " + victim.name();
  const int total = gpu + 1;
  span.AddArg("total", total + bytes.count());
}

}  // namespace fixture
