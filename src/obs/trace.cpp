#include "obs/trace.h"

#include <algorithm>

#include "util/status.h"

namespace swapserve::obs {

Span::Span(TraceRecorder* recorder, std::string_view name,
           std::string_view category, std::string_view track)
    : recorder_(recorder) {
  event_.phase = TraceEvent::Phase::kComplete;
  event_.ts_ns = recorder->Now().ns();
  event_.name = name;
  event_.category = category;
  event_.track = track;
}

void Span::AddArg(std::string_view key, std::string_view value) {
  if (recorder_ == nullptr) return;
  event_.args.emplace_back(key, value);
}

void Span::End() {
  if (recorder_ == nullptr) return;
  TraceRecorder* rec = std::exchange(recorder_, nullptr);
  event_.dur_ns = rec->Now().ns() - event_.ts_ns;
  rec->Emit(std::move(event_));
}

TraceRecorder::TraceRecorder(sim::Simulation& sim, std::size_t capacity)
    : sim_(sim), ring_(capacity) {
  SWAP_CHECK_MSG(capacity > 0, "trace ring needs a positive capacity");
}

void TraceRecorder::Emit(TraceEvent event) {
  if (!enabled_) return;
  const std::uint64_t slot =
      cursor_.fetch_add(1, std::memory_order_relaxed);
  ring_[static_cast<std::size_t>(slot % ring_.size())] = std::move(event);
}

void TraceRecorder::Instant(std::string_view name, std::string_view category,
                            std::string_view track, TraceArgs args) {
  if (!enabled_) return;
  TraceEvent ev;
  ev.phase = TraceEvent::Phase::kInstant;
  ev.ts_ns = sim_.Now().ns();
  ev.name = name;
  ev.category = category;
  ev.track = track;
  ev.args.reserve(args.size());
  for (const auto& [key, value] : args) ev.args.emplace_back(key, value);
  Emit(std::move(ev));
}

std::size_t TraceRecorder::size() const {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(total_emitted(), ring_.size()));
}

std::uint64_t TraceRecorder::dropped() const {
  const std::uint64_t total = total_emitted();
  return total > ring_.size() ? total - ring_.size() : 0;
}

std::vector<TraceEvent> TraceRecorder::Snapshot() const {
  const std::uint64_t total = total_emitted();
  const std::uint64_t cap = ring_.size();
  std::vector<TraceEvent> out;
  out.reserve(static_cast<std::size_t>(std::min(total, cap)));
  const std::uint64_t first = total > cap ? total - cap : 0;
  for (std::uint64_t i = first; i < total; ++i) {
    out.push_back(ring_[static_cast<std::size_t>(i % cap)]);
  }
  return out;
}

}  // namespace swapserve::obs
