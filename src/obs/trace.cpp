#include "obs/trace.h"

#include <algorithm>
#include <bit>

#include "util/status.h"

namespace swapserve::obs {

Span::Span(TraceRecorder* recorder, std::string_view name,
           std::string_view category, std::string_view track)
    : recorder_(recorder), record_() {
  record_.phase = TraceEvent::Phase::kComplete;
  record_.ts_ns = recorder->Now().ns();
  record_.name = recorder->Intern(name);
  record_.category = recorder->Intern(category);
  record_.track = recorder->Intern(track);
}

void Span::Append(std::string_view key, TraceValue value) {
  SWAP_CHECK_MSG(record_.num_args < kMaxTraceArgs,
                 "trace span exceeds kMaxTraceArgs");
  record_.args[record_.num_args++] = recorder_->MakeArg(key, value);
}

void Span::Emit() {
  TraceRecorder* rec = std::exchange(recorder_, nullptr);
  record_.dur_ns = rec->Now().ns() - record_.ts_ns;
  rec->Record(record_);
}

TraceRecorder::TraceRecorder(sim::Simulation& sim, std::size_t capacity)
    : sim_(sim), capacity_(capacity) {
  SWAP_CHECK_MSG(capacity > 0, "trace ring needs a positive capacity");
}

std::uint32_t TraceRecorder::Intern(std::string_view s) {
  if (auto it = ids_.find(s); it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(strings_.size());
  auto [it, inserted] = ids_.emplace(std::string(s), id);
  strings_.push_back(it->first);
  return id;
}

std::uint32_t TraceRecorder::InternName(TraceName name) {
  if (name.suffix.empty()) return Intern(name.prefix);
  joined_.assign(name.prefix);
  joined_.append(name.suffix);
  return Intern(std::string_view(joined_));
}

TraceRecord::Arg TraceRecorder::MakeArg(std::string_view key,
                                        TraceValue value) {
  TraceRecord::Arg arg;
  arg.key = Intern(key);
  arg.kind = value.kind();
  switch (value.kind()) {
    case TraceValue::Kind::kString: arg.value = Intern(value.str()); break;
    case TraceValue::Kind::kInt: arg.value = value.integer(); break;
    case TraceValue::Kind::kReal:
      arg.value = std::bit_cast<std::int64_t>(value.real());
      break;
  }
  return arg;
}

std::string TraceRecorder::RenderArg(const TraceRecord::Arg& arg) const {
  switch (arg.kind) {
    case TraceValue::Kind::kString:
      return std::string(strings_[static_cast<std::size_t>(arg.value)]);
    case TraceValue::Kind::kInt: return std::to_string(arg.value);
    case TraceValue::Kind::kReal:
      return std::to_string(std::bit_cast<double>(arg.value));
  }
  return {};
}

void TraceRecorder::Record(const TraceRecord& record) {
  if (!enabled_) return;
  if (ring_.empty()) ring_.resize(capacity_);
  const std::uint64_t slot =
      cursor_.fetch_add(1, std::memory_order_relaxed);
  ring_[static_cast<std::size_t>(slot % capacity_)] = record;
}

void TraceRecorder::Instant(TraceName name, std::string_view category,
                            std::string_view track, TraceArgs args) {
  if (!enabled_) return;
  SWAP_CHECK_MSG(args.size() <= kMaxTraceArgs,
                 "trace instant exceeds kMaxTraceArgs");
  TraceRecord rec;
  rec.phase = TraceEvent::Phase::kInstant;
  rec.ts_ns = sim_.Now().ns();
  rec.name = InternName(name);
  rec.category = Intern(category);
  rec.track = Intern(track);
  for (const TraceArg& arg : args) {
    rec.args[rec.num_args++] = MakeArg(arg.key, arg.value);
  }
  Record(rec);
}

std::size_t TraceRecorder::size() const {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(total_emitted(), capacity_));
}

std::uint64_t TraceRecorder::dropped() const {
  const std::uint64_t total = total_emitted();
  return total > capacity_ ? total - capacity_ : 0;
}

std::vector<TraceEvent> TraceRecorder::Snapshot() const {
  const std::uint64_t total = total_emitted();
  const std::uint64_t cap = capacity_;
  std::vector<TraceEvent> out;
  out.reserve(static_cast<std::size_t>(std::min(total, cap)));
  const std::uint64_t first = total > cap ? total - cap : 0;
  for (std::uint64_t i = first; i < total; ++i) {
    const TraceRecord& rec = ring_[static_cast<std::size_t>(i % cap)];
    TraceEvent& ev = out.emplace_back();
    ev.phase = rec.phase;
    ev.ts_ns = rec.ts_ns;
    ev.dur_ns = rec.dur_ns;
    ev.name = strings_[rec.name];
    ev.category = strings_[rec.category];
    ev.track = strings_[rec.track];
    ev.args.reserve(rec.num_args);
    for (std::size_t a = 0; a < rec.num_args; ++a) {
      ev.args.emplace_back(strings_[rec.args[a].key],
                           RenderArg(rec.args[a]));
    }
  }
  return out;
}

}  // namespace swapserve::obs
