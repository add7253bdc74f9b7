#include "core/config.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <concepts>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "fault/fault_points.h"
#include "model/calibration.h"
#include "sim/time.h"

namespace swapserve::core {
namespace {

using schema::Row;

std::string Join(std::string_view path, std::string_view key) {
  std::string out(path);
  if (!out.empty()) out += '.';
  return out.append(key);
}

template <typename T>
std::string Show(T v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

Status Error(std::string message) {
  return InvalidArgument("config: " + std::move(message));
}

template <typename S>
constexpr bool kIsSection = !schema::kRows<S>.empty();

// Levenshtein distance, for suggesting the key a typo meant.
std::size_t EditDistance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

// A key no row of the section names: a typo, or a setting this build does
// not have. Names the nearest live key within edit distance 2.
template <typename S>
Status Unknown(std::string_view path, std::string_view key) {
  std::string message = std::string("unknown ") +
                        (path.empty() ? "section \"" : "key \"") +
                        Join(path, key) + "\"";
  std::string_view nearest;
  std::size_t best = 3;
  for (const Row<S>& row : schema::kRows<S>) {
    if (std::holds_alternative<schema::Removed>(row.field)) continue;
    if (const std::size_t d = EditDistance(key, row.key); d < best) {
      best = d;
      nearest = row.key;
    }
  }
  if (!nearest.empty()) {
    message += " (did you mean \"" + Join(path, nearest) + "\"?)";
  }
  return Error(message);
}

// --- Reading: the JSON type follows the field's C++ type ---------------

Status Read(const json::Value& v, const std::string& path, bool& out) {
  if (!v.is_bool()) return Error(path + " must be a boolean");
  out = v.AsBool();
  return Status::Ok();
}

Status Read(const json::Value& v, const std::string& path, double& out) {
  if (!v.is_number()) return Error(path + " must be a number");
  out = v.AsDouble();
  return Status::Ok();
}

// An integer must also fit its field: 4294967297 is no `int`, and -1 no
// unsigned seed.
template <std::integral T>
Status Read(const json::Value& v, const std::string& path, T& out) {
  using Limits = std::numeric_limits<T>;
  if (!v.is_number() || v.AsDouble() != std::trunc(v.AsDouble())) {
    return Error(path + " must be an integer");
  }
  const double d = v.AsDouble();
  const double end = std::ldexp(1.0, Limits::digits);  // max + 1
  if (d < (Limits::is_signed ? -end : 0.0) || d >= end) {
    return Error(path + " must be an integer in [" + Show(Limits::min()) +
                 ", " + Show(Limits::max()) + "] (got " + Show(d) + ")");
  }
  out = static_cast<T>(d);
  return Status::Ok();
}

Status Read(const json::Value& v, const std::string& path,
            std::string& out) {
  if (!v.is_string()) return Error(path + " must be a string");
  out = v.AsString();
  return Status::Ok();
}

Status Read(const json::Value& v, const std::string& path, StatusCode& out) {
  std::string name;
  SWAP_RETURN_IF_ERROR(Read(v, path, name));
  Result<StatusCode> code = ParseStatusCode(name);
  if (!code.ok()) return Error(path + ": " + code.status().message());
  out = *code;
  return Status::Ok();
}

Status Read(const json::Value& v, const std::string& path,
            ClassBudgets& out) {
  if (!v.is_object()) return Error(path + " must be an object");
  for (const auto& [key, value] : v.AsObject()) {
    SWAP_RETURN_IF_ERROR(Read(value, Join(path, key), out[key]));
  }
  return Status::Ok();
}

// Another program's section: any object.
Status Read(const json::Value& v, const std::string& path, schema::Unread&) {
  return v.is_object() ? Status::Ok() : Error(path + " must be an object");
}

template <typename S>
  requires kIsSection<S>
Status Read(const json::Value& v, const std::string& path, S& out);

template <typename T>
Status Read(const json::Value& v, const std::string& path,
            std::vector<T>& out) {
  if (!v.is_array()) return Error(path + " must be an array");
  const std::vector<json::Value>& items = v.AsArray();
  out.assign(items.size(), T{});
  for (std::size_t i = 0; i < items.size(); ++i) {
    const std::string at = path + "[" + std::to_string(i) + "]";
    SWAP_RETURN_IF_ERROR(Read(items[i], at, out[i]));
  }
  return Status::Ok();
}

// A section: every key must be a row's. A null value reads as absent.
template <typename S>
  requires kIsSection<S>
Status Read(const json::Value& v, const std::string& path, S& out) {
  if (!v.is_object()) return Error(path + " must be an object");
  const std::span<const Row<S>> rows = schema::kRows<S>;
  for (const auto& [key, value] : v.AsObject()) {
    const auto row = std::ranges::find(rows, key, &Row<S>::key);
    if (row == rows.end()) return Unknown<S>(path, key);
    const std::string at = Join(path, key);
    SWAP_RETURN_IF_ERROR(std::visit(
        [&](auto field) -> Status {
          using F = decltype(field);
          if constexpr (std::is_same_v<F, schema::Removed>) {
            return Error(at + " was removed; " + std::string(field.why));
          } else if (value.is_null()) {
            return Status::Ok();
          } else if constexpr (std::is_member_object_pointer_v<F>) {
            return Read(value, at, out.*field);
          } else {  // Unread or Retired: a section that stores nothing
            return Read(value, at, field);
          }
        },
        row->field));
  }
  for (const Row<S>& row : rows) {
    const json::Value* given = v.Find(row.key);
    if (row.required &&
        (given == nullptr || given->is_null() ||
         (given->is_string() && given->AsString().empty()))) {
      return Error(Join(path, row.key) + " is required");
    }
  }
  return Status::Ok();
}

// --- Range checks, on the struct ----------------------------------------

std::string Describe(const schema::Range& r) {
  if (!r.choices.empty()) {
    std::string out = "one of [";
    for (std::string_view c : r.choices) out.append("\"").append(c) += "\", ";
    return out.substr(0, out.size() - 2) + "]";
  }
  if (r.hi == schema::kInf) return (r.lo_open ? "> " : ">= ") + Show(r.lo);
  return std::string("in ") + (r.lo_open ? "(" : "[") + Show(r.lo) + ", " +
         Show(r.hi) + (r.hi_open ? ")" : "]");
}

template <typename S>
Status CheckRows(const std::string& path, const S& section);

template <typename T>
Status Check(const std::string& path, const schema::Range& r, const T& v) {
  if constexpr (kIsSection<T>) {
    return CheckRows(path, v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!r.choices.empty() && std::ranges::count(r.choices, v) == 0) {
      return Error(path + " must be " + Describe(r) + " (got \"" + v + "\")");
    }
  } else if constexpr (std::is_same_v<T, ClassBudgets>) {
    for (const auto& [key, value] : v) {
      SWAP_RETURN_IF_ERROR(Check(Join(path, key), r, value));
    }
  } else if constexpr (requires { v.size(); v[0]; }) {  // a list
    for (std::size_t i = 0; i < v.size(); ++i) {
      const std::string at = path + "[" + std::to_string(i) + "]";
      SWAP_RETURN_IF_ERROR(Check(at, r, v[i]));
    }
  } else if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
    const double d = static_cast<double>(v);
    if (!(r.lo_open ? d > r.lo : d >= r.lo) ||
        !(r.hi_open ? d < r.hi : d <= r.hi)) {
      return Error(path + " must be " + Describe(r) + " (got " + Show(v) +
                   ")");
    }
  }
  return Status::Ok();
}

template <typename S>
Status CheckRows(const std::string& path, const S& section) {
  for (const Row<S>& row : schema::kRows<S>) {
    SWAP_RETURN_IF_ERROR(std::visit(
        [&](auto field) -> Status {
          if constexpr (std::is_member_object_pointer_v<decltype(field)>) {
            return Check(Join(path, row.key), row.range, section.*field);
          } else {
            return Status::Ok();
          }
        },
        row.field));
  }
  return Status::Ok();
}

}  // namespace

Result<Config> Config::FromJson(const json::Value& doc) {
  if (!doc.is_object()) return InvalidArgument("config: not a JSON object");
  Config cfg;
  SWAP_RETURN_IF_ERROR(Read(doc, "", cfg));
  return cfg;
}

Result<Config> Config::FromJsonText(std::string_view text) {
  SWAP_ASSIGN_OR_RETURN(json::Value doc, json::Parse(text));
  return FromJson(doc);
}

int Config::NodeGpuCount(int node) const {
  if (node < 0 || node >= cluster.nodes) return 0;
  if (cluster.node_gpus.empty()) return 1;
  return cluster.node_gpus[static_cast<std::size_t>(node)];
}

Status Config::Validate(const model::ModelCatalog& catalog,
                        int gpu_count) const {
  if (models.empty()) return InvalidArgument("config: no models configured");
  SWAP_RETURN_IF_ERROR(CheckRows("", *this));
  // The GPU monitor samples on this grid; an interval that truncates to
  // 0 ns would never advance it.
  if (sim::Seconds(global.monitor_interval_s).ns() <= 0) {
    return InvalidArgument(
        "config: monitor_interval_s must be positive (at least 1 ns)");
  }
  if (global.host_cache_mib / 1024.0 > global.snapshot_budget_gib) {
    return InvalidArgument(
        "config: host_cache_mib exceeds snapshot_budget_gib");
  }
  for (const fault::FaultRule& r : fault.rules) {
    if (!fault::IsRegisteredFaultPoint(r.point)) {
      return InvalidArgument("config: fault rule names unregistered point \"" +
                             r.point + "\" (see src/fault/fault_points.h)");
    }
  }
  if (!cluster.node_gpus.empty() &&
      cluster.node_gpus.size() != static_cast<std::size_t>(cluster.nodes)) {
    return InvalidArgument(
        "config: cluster.node_gpus lists " +
        std::to_string(cluster.node_gpus.size()) +
        " node(s) but cluster.nodes is " + std::to_string(cluster.nodes) +
        "; give one GPU count per node or omit the list");
  }
  if (cluster.replicate > cluster.nodes) {
    return InvalidArgument(
        "config: cluster.replicate must be in [1, cluster.nodes]; got " +
        std::to_string(cluster.replicate) + " with " +
        std::to_string(cluster.nodes) + " node(s)");
  }
  if (cluster.heartbeat_interval_s > 0 &&
      (cluster.suspect_after_s <= 0 ||
       cluster.down_after_s <= cluster.suspect_after_s)) {
    return InvalidArgument(
        "config: need 0 < cluster.suspect_after_s < cluster.down_after_s "
        "(a node must pass through suspicion before it is declared down)");
  }
  const bool clustered = cluster.nodes > 1;
  std::set<std::string> seen;
  for (const ModelEntry& m : models) {
    if (!seen.insert(m.model_id).second) {
      return InvalidArgument("config: duplicate model " + m.model_id);
    }
    if (!catalog.Contains(m.model_id)) {
      return NotFound("config: model " + m.model_id + " not in catalog");
    }
    if (model::FindEngineProfile(m.engine) == nullptr) {
      return InvalidArgument("unknown engine kind: " + m.engine);
    }
    if (m.node < 0 || m.node >= cluster.nodes) {
      return InvalidArgument("config: model " + m.model_id +
                             ": home node " + std::to_string(m.node) +
                             " out of range for a " +
                             std::to_string(cluster.nodes) +
                             "-node cluster");
    }
    // With one node the machine's real GPU count bounds placement; in a
    // cluster each entry must fit its home node's GPU count.
    const int host_gpus = clustered ? NodeGpuCount(m.node) : gpu_count;
    if (m.gpu < 0 || m.gpu >= host_gpus) {
      return InvalidArgument("config: model " + m.model_id + ": gpu index " +
                             std::to_string(m.gpu) + " out of range");
    }
    if (m.tp < 1 || m.gpu + m.tp > host_gpus) {
      return InvalidArgument(
          "config: model " + m.model_id + ": tensor-parallel group [" +
          std::to_string(m.gpu) + ", " + std::to_string(m.gpu + m.tp) +
          ") does not fit the " + std::to_string(host_gpus) + "-GPU " +
          (clustered ? "node " + std::to_string(m.node) : "host"));
    }
  }
  return Status::Ok();
}

}  // namespace swapserve::core
