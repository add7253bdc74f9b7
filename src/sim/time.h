// Virtual time for the discrete-event simulator.
//
// All durations are integral nanoseconds so event ordering is exact and
// platform-independent; floating-point seconds appear only at the modelling
// boundary (Seconds()) and in reporting (ToSeconds()).

#pragma once

#include <compare>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>

namespace swapserve::sim {

class SimDuration {
 public:
  constexpr SimDuration() = default;
  constexpr explicit SimDuration(std::int64_t ns) : ns_(ns) {}

  constexpr std::int64_t ns() const { return ns_; }
  constexpr double ToSeconds() const { return static_cast<double>(ns_) / 1e9; }
  constexpr double ToMillis() const { return static_cast<double>(ns_) / 1e6; }

  friend constexpr auto operator<=>(SimDuration, SimDuration) = default;
  friend constexpr SimDuration operator+(SimDuration a, SimDuration b) {
    return SimDuration(a.ns_ + b.ns_);
  }
  friend constexpr SimDuration operator-(SimDuration a, SimDuration b) {
    return SimDuration(a.ns_ - b.ns_);
  }
  friend constexpr SimDuration operator*(SimDuration a, std::int64_t k) {
    return SimDuration(a.ns_ * k);
  }
  constexpr SimDuration& operator+=(SimDuration other) {
    ns_ += other.ns_;
    return *this;
  }

  std::string ToString() const;  // e.g. "12.500s"

 private:
  std::int64_t ns_ = 0;
};

class SimTime {
 public:
  constexpr SimTime() = default;
  constexpr explicit SimTime(std::int64_t ns) : ns_(ns) {}

  constexpr std::int64_t ns() const { return ns_; }
  constexpr double ToSeconds() const { return static_cast<double>(ns_) / 1e9; }

  friend constexpr auto operator<=>(SimTime, SimTime) = default;
  friend constexpr SimTime operator+(SimTime t, SimDuration d) {
    return SimTime(t.ns() + d.ns());
  }
  friend constexpr SimTime operator-(SimTime t, SimDuration d) {
    return SimTime(t.ns() - d.ns());
  }
  friend constexpr SimDuration operator-(SimTime a, SimTime b) {
    return SimDuration(a.ns() - b.ns());
  }

  std::string ToString() const;

 private:
  std::int64_t ns_ = 0;
};

// An instant no simulation reaches: "never" for deadlines and wake-ups.
inline constexpr SimTime kNever{std::numeric_limits<std::int64_t>::max()};

constexpr SimDuration Nanos(std::int64_t n) { return SimDuration(n); }
constexpr SimDuration Micros(double n) {
  return SimDuration(static_cast<std::int64_t>(n * 1e3));
}
constexpr SimDuration Millis(double n) {
  return SimDuration(static_cast<std::int64_t>(n * 1e6));
}
constexpr SimDuration Seconds(double n) {
  return SimDuration(static_cast<std::int64_t>(n * 1e9));
}
constexpr SimDuration Minutes(double n) { return Seconds(n * 60.0); }
constexpr SimDuration Hours(double n) { return Seconds(n * 3600.0); }
constexpr SimDuration Days(double n) { return Hours(n * 24.0); }

std::ostream& operator<<(std::ostream& os, SimDuration d);
std::ostream& operator<<(std::ostream& os, SimTime t);

}  // namespace swapserve::sim
