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
// Ring entries are fixed-size and trivially copyable: names, categories,
// tracks, arg keys and string arg values are ids into a per-recorder
// intern table, and integer/real arg values are stored inline. Values
// that vary per event must be numbers, so the table stays bounded by the
// distinct names, tracks and models a run uses. The ring itself is
// allocated on the first recorded event; a recorder that never records
// costs no ring memory. Snapshot() resolves entries back to TraceEvents.
//
// Export formats (Chrome trace-event JSON, Prometheus text) live in
// obs/exporters.h.

#pragma once

#include <array>
#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/simulation.h"

namespace swapserve::obs {

// Args one event can carry; the widest site (`tier.promote`) uses 5.
inline constexpr std::size_t kMaxTraceArgs = 6;

// A resolved event, as Snapshot() returns it to exporters and tests.
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

// An arg value borrowed at the call site: a string view, an integer or a
// real. Numbers are stored as they are (integers as int64) and formatted
// with std::to_string only by Snapshot(), so a disabled recorder formats
// nothing.
class TraceValue {
 public:
  enum class Kind : std::uint8_t { kString, kInt, kReal };

  TraceValue(std::string_view s) : kind_(Kind::kString), str_(s) {}
  TraceValue(const char* s) : TraceValue(std::string_view(s)) {}
  TraceValue(const std::string& s) : TraceValue(std::string_view(s)) {}
  template <std::integral T>
    requires(!std::same_as<T, bool> && !std::same_as<T, char>)
  TraceValue(T v) : kind_(Kind::kInt), int_(static_cast<std::int64_t>(v)) {}
  TraceValue(double v) : kind_(Kind::kReal), real_(v) {}
  // A bool would otherwise convert to double and render as "1.000000";
  // pass "true"/"false" instead.
  TraceValue(bool) = delete;

  Kind kind() const { return kind_; }
  std::string_view str() const { return str_; }
  std::int64_t integer() const { return int_; }
  double real() const { return real_; }

 private:
  Kind kind_;
  std::string_view str_;
  std::int64_t int_ = 0;
  double real_ = 0;
};

struct TraceArg {
  std::string_view key;
  TraceValue value;
};

// Borrowed args for an instant; interned only when recorded.
using TraceArgs = std::initializer_list<TraceArg>;

// An instant name borrowed at the call site, optionally a prefix plus a
// suffix (`{"preempt:", victim}`) that the recorder joins only when it
// records, so a disabled recorder never builds the string.
struct TraceName {
  TraceName(std::string_view s) : prefix(s) {}
  TraceName(const char* s) : prefix(s) {}
  TraceName(const std::string& s) : prefix(s) {}
  TraceName(std::string_view p, std::string_view s) : prefix(p), suffix(s) {}

  std::string_view prefix;
  std::string_view suffix;
};

// One ring entry. Every string is an id into the recorder's intern table.
struct TraceRecord {
  struct Arg {
    std::uint32_t key = 0;
    TraceValue::Kind kind = TraceValue::Kind::kInt;
    std::int64_t value = 0;  // the integer, a string id, or a real's bits
  };

  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint32_t name = 0;
  std::uint32_t category = 0;
  std::uint32_t track = 0;
  TraceEvent::Phase phase = TraceEvent::Phase::kComplete;
  std::uint8_t num_args = 0;
  std::array<Arg, kMaxTraceArgs> args{};
};
static_assert(std::is_trivially_copyable_v<TraceRecord>);

class TraceRecorder;

// Scoped span: captures the virtual clock at construction and emits one
// kComplete event when End() runs (at latest, destruction). Default
// constructed or moved-from spans are inert, so call sites can hold a Span
// unconditionally even when tracing is disabled; a disabled recorder hands
// out inert spans without touching any string. An inert span is one null
// pointer: its record stays unconstructed, and AddArg/End test the pointer
// inline before any out-of-line work.
class [[nodiscard]] Span {
 public:
  Span() noexcept {}
  Span(Span&& o) noexcept : recorder_(std::exchange(o.recorder_, nullptr)) {
    if (recorder_ != nullptr) record_ = o.record_;
  }
  Span& operator=(Span&& o) noexcept {
    if (this != &o) {
      End();
      recorder_ = std::exchange(o.recorder_, nullptr);
      if (recorder_ != nullptr) record_ = o.record_;
    }
    return *this;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { End(); }

  // Attach a key/value pair shown in the trace viewer's detail pane (at
  // most kMaxTraceArgs). A no-op on an inert span.
  void AddArg(std::string_view key, TraceValue value) {
    if (recorder_ != nullptr) Append(key, value);
  }

  // Emit the completed span; idempotent.
  void End() {
    if (recorder_ != nullptr) Emit();
  }
  bool active() const { return recorder_ != nullptr; }

 private:
  friend class TraceRecorder;
  Span(TraceRecorder* recorder, std::string_view name,
       std::string_view category, std::string_view track);

  void Append(std::string_view key, TraceValue value);
  void Emit();

  TraceRecorder* recorder_ = nullptr;
  // Live only while recorder_ is set.
  union {
    TraceRecord record_;
  };
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

  // Both return before touching a view when the recorder is disabled.
  Span StartSpan(std::string_view name, std::string_view category,
                 std::string_view track) {
    if (!enabled_) return Span();
    return Span(this, name, category, track);
  }
  void Instant(TraceName name, std::string_view category,
               std::string_view track, TraceArgs args = {});

  // The configured ring size; the ring is allocated on the first event.
  std::size_t capacity() const { return capacity_; }
  // Events currently retained (<= capacity).
  std::size_t size() const;
  std::uint64_t total_emitted() const {
    return cursor_.load(std::memory_order_relaxed);
  }
  // Events overwritten because the ring wrapped.
  std::uint64_t dropped() const;
  // Distinct strings interned so far.
  std::size_t interned_strings() const { return strings_.size(); }

  // Retained events, oldest first, with every id resolved.
  std::vector<TraceEvent> Snapshot() const;

 private:
  friend class Span;

  struct ViewHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::uint32_t Intern(std::string_view s);
  std::uint32_t InternName(TraceName name);  // joins prefix + suffix
  TraceRecord::Arg MakeArg(std::string_view key, TraceValue value);
  std::string RenderArg(const TraceRecord::Arg& arg) const;
  void Record(const TraceRecord& record);

  sim::Simulation& sim_;
  std::size_t capacity_;
  std::vector<TraceRecord> ring_;  // empty until the first event
  // Monotonic count of events ever emitted; slot = cursor_ % capacity.
  std::atomic<std::uint64_t> cursor_{0};
  bool enabled_ = true;
  // Intern table: map nodes never move, so the views in strings_ (indexed
  // by id) stay valid for the recorder's lifetime.
  std::unordered_map<std::string, std::uint32_t, ViewHash, std::equal_to<>>
      ids_;
  std::vector<std::string_view> strings_;
  std::string joined_;  // reused buffer for prefix+suffix names
};

}  // namespace swapserve::obs
