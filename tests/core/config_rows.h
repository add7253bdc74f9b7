// Test helpers over the config schema (core::schema): walk a section's
// setting rows, pick a value that differs from a field's default and
// lies inside its row's range, and spell values as JSON.

#pragma once

#include <cmath>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"

namespace swapserve::core::testing {

// Calls f(row, member) for each row of S that sets a leaf field (a value,
// not a nested section or list of sections).
template <typename S, typename F>
void ForEachLeafRow(F&& f) {
  for (const schema::Row<S>& row : schema::kRows<S>) {
    std::visit(
        [&](auto member) {
          if constexpr (std::is_member_object_pointer_v<decltype(member)>) {
            using T = std::remove_cvref_t<decltype(std::declval<S&>().*member)>;
            if constexpr (schema::kRows<T>.empty() &&
                          !std::is_same_v<T, std::vector<fault::FaultRule>> &&
                          !std::is_same_v<T, std::vector<ModelEntry>>) {
              f(row, member);
            }
          }
        },
        row.field);
  }
}

// A section's arity: the most initializers S{...} takes.
struct AnyField {
  template <typename T>
  operator T() const;  // NOLINT(google-explicit-constructor)
};

template <typename S, typename... A>
constexpr std::size_t FieldCount() {
  if constexpr (requires { S{A{}..., AnyField{}}; }) {
    return FieldCount<S, A..., AnyField>();
  } else {
    return sizeof...(A);
  }
}

// The rows of S that set a member (removed keys set none).
template <typename S>
constexpr std::size_t SettingCount() {
  std::size_t n = 0;
  for (const schema::Row<S>& row : schema::kRows<S>) {
    n += std::visit(
        [](auto field) {
          return std::is_member_object_pointer_v<decltype(field)>;
        },
        row.field);
  }
  return n;
}

inline bool Bounded(const schema::Range& r) {
  return r.lo > -schema::kInf || r.hi < schema::kInf || !r.choices.empty();
}

inline bool InRange(const schema::Range& r, double d) {
  return (r.lo_open ? d > r.lo : d >= r.lo) &&
         (r.hi_open ? d < r.hi : d <= r.hi);
}

// A value of the field's type other than `current`, inside `range`.
template <typename T>
T NonDefault(const schema::Range& range, const T& current) {
  if constexpr (std::is_same_v<T, bool>) {
    return !current;
  } else if constexpr (std::is_arithmetic_v<T>) {
    for (double c : {0.5, 2.0, 3.0}) {
      if (std::is_integral_v<T> && c != std::trunc(c)) continue;
      if (InRange(range, c) && static_cast<T>(c) != current) {
        return static_cast<T>(c);
      }
    }
    ADD_FAILURE() << "no candidate value in range";
    return current;
  } else if constexpr (std::is_same_v<T, std::string>) {
    for (std::string_view c : range.choices) {
      if (c != current) return std::string(c);
    }
    return current + "x";
  } else if constexpr (std::is_same_v<T, StatusCode>) {
    return current == StatusCode::kInternal ? StatusCode::kNotFound
                                            : StatusCode::kInternal;
  } else if constexpr (std::is_same_v<T, std::vector<int>>) {
    return {2};
  } else {
    static_assert(std::is_same_v<T, ClassBudgets>);
    return {{"gold", 0.5}};
  }
}

template <typename T>
std::string ToJson(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return v ? "true" : "false";
  } else if constexpr (std::is_arithmetic_v<T>) {
    return json::Value(static_cast<double>(v)).Dump();
  } else if constexpr (std::is_same_v<T, std::string>) {
    return "\"" + v + "\"";
  } else if constexpr (std::is_same_v<T, StatusCode>) {
    return "\"" + std::string(StatusCodeName(v)) + "\"";
  } else if constexpr (std::is_same_v<T, std::vector<int>>) {
    std::string out = "[";
    for (int x : v) out += (out.size() > 1 ? ", " : "") + std::to_string(x);
    return out + "]";
  } else {
    std::string out = "{";
    for (const auto& [key, value] : v) {
      out += (out.size() > 1 ? ", \"" : "\"") + key + "\": " + ToJson(value);
    }
    return out + "}";
  }
}

}  // namespace swapserve::core::testing
