// Trace recorder: a fixed-capacity ring buffer of timestamped span events
// keyed on sim::SimTime, with scoped RAII Span helpers.
//
// The recorder is the repo's answer to "where did the time go?": every hop
// of the request path (router -> scheduler -> checkpoint -> GPU) opens a
// span, so a slow TTFT decomposes into queue wait vs. reservation wait vs.
// D2H drain instead of one opaque number. Events live in a ring so an
// unbounded simulation keeps the most recent window at O(1) per emit; the
// write cursor is a relaxed atomic (lock-free single-producer), which also
// gives the sanitizer builds something real to chew on.
//
// Export formats (Chrome trace-event JSON, Prometheus text) live in
// obs/exporters.h.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/simulation.h"

namespace swapserve::obs {

// Borrowed key/value pairs for an instant; copied only when recorded.
using TraceArgs =
    std::initializer_list<std::pair<std::string_view, std::string_view>>;

struct TraceEvent {
  // Chrome trace-event phases we emit: complete spans carry their own
  // duration; instants mark point decisions (e.g. "preempt victim X").
  enum class Phase : char { kComplete = 'X', kInstant = 'i' };

  Phase phase = Phase::kComplete;
  std::int64_t ts_ns = 0;   // sim::SimTime at span start / instant
  std::int64_t dur_ns = 0;  // kComplete only
  std::string name;         // e.g. "h2d"
  std::string category;     // e.g. "ckpt"
  std::string track;        // rendered as a named thread ("model", "gpu0")
  std::vector<std::pair<std::string, std::string>> args;
};

class TraceRecorder;

// Scoped span: captures the virtual clock at construction and emits one
// kComplete event when End() runs (at latest, destruction). Default
// constructed or moved-from spans are inert, so call sites can hold a Span
// unconditionally even when tracing is disabled; a disabled recorder hands
// out inert spans without building any string.
class [[nodiscard]] Span {
 public:
  Span() = default;
  Span(Span&& o) noexcept
      : recorder_(std::exchange(o.recorder_, nullptr)),
        event_(std::move(o.event_)) {}
  Span& operator=(Span&& o) noexcept {
    if (this != &o) {
      End();
      recorder_ = std::exchange(o.recorder_, nullptr);
      event_ = std::move(o.event_);
    }
    return *this;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { End(); }

  // Attach a key/value pair shown in the trace viewer's detail pane.
  // A no-op on an inert span.
  void AddArg(std::string_view key, std::string_view value);

  // Emit the completed span; idempotent.
  void End();
  bool active() const { return recorder_ != nullptr; }

 private:
  friend class TraceRecorder;
  Span(TraceRecorder* recorder, std::string_view name,
       std::string_view category, std::string_view track);

  TraceRecorder* recorder_ = nullptr;
  TraceEvent event_;
};

class TraceRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  explicit TraceRecorder(sim::Simulation& sim,
                         std::size_t capacity = kDefaultCapacity);
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  sim::SimTime Now() const { return sim_.Now(); }

  // Append one event, overwriting the oldest when the ring is full.
  void Emit(TraceEvent event);

  // Both return before copying a view when the recorder is disabled.
  Span StartSpan(std::string_view name, std::string_view category,
                 std::string_view track) {
    if (!enabled_) return Span();
    return Span(this, name, category, track);
  }
  void Instant(std::string_view name, std::string_view category,
               std::string_view track, TraceArgs args = {});

  std::size_t capacity() const { return ring_.size(); }
  // Events currently retained (<= capacity).
  std::size_t size() const;
  std::uint64_t total_emitted() const {
    return cursor_.load(std::memory_order_relaxed);
  }
  // Events overwritten because the ring wrapped.
  std::uint64_t dropped() const;

  // Retained events, oldest first.
  std::vector<TraceEvent> Snapshot() const;

 private:
  sim::Simulation& sim_;
  std::vector<TraceEvent> ring_;
  // Monotonic count of events ever emitted; slot = cursor_ % capacity.
  std::atomic<std::uint64_t> cursor_{0};
  bool enabled_ = true;
};

}  // namespace swapserve::obs
