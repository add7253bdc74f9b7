#include "fault/fault_injector.h"

#include <algorithm>
#include <utility>

#include "util/log.h"

namespace swapserve::fault {

std::uint64_t StableHash(std::string_view text) {
  // FNV-1a 64-bit.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t StableHashCombine(std::uint64_t seed, std::uint64_t value) {
  // splitmix64 finalizer over the xor — cheap, stable avalanche.
  std::uint64_t z = seed ^ (value + 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

FaultInjector::FaultInjector(sim::Simulation& sim, std::uint64_t seed)
    : sim_(sim), seed_(seed), rng_(seed) {}

void FaultInjector::Configure(FaultPlan plan) {
  plan_ = std::move(plan);
  fires_left_.clear();
  for (const FaultRule& rule : plan_.rules) {
    SWAP_CHECK_MSG(rule.probability >= 0 && rule.probability <= 1.0,
                   "fault rule probability out of [0, 1]");
    fires_left_.push_back(rule.max_fires);
  }
  fires_by_point_.clear();
  total_fires_ = 0;
  rng_ = sim::Rng(seed_);
  if (configure_signal_ != nullptr) configure_signal_->Pulse();
}

bool FaultInjector::Matches(const FaultRule& rule, std::string_view point,
                            std::string_view owner) {
  return rule.point == point && (rule.owner.empty() || rule.owner == owner);
}

sim::SimTime FaultInjector::NextArmed(std::string_view point,
                                      std::string_view owner) const {
  sim::SimTime next = sim::kNever;
  for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
    const FaultRule& rule = plan_.rules[i];
    if (!Matches(rule, point, owner) || fires_left_[i] == 0) continue;
    // Past half the representable range (~146 years), or NaN: the rule
    // never arms within a run, and grid arithmetic on it cannot overflow.
    if (!(rule.arm_after_s < sim::kNever.ToSeconds() / 2)) continue;
    // Evaluate() compares seconds as doubles; find the first nanosecond
    // that comparison accepts.
    std::int64_t ns = sim::Seconds(rule.arm_after_s).ns();
    while (ns > 0 && !(sim::SimTime(ns - 1).ToSeconds() < rule.arm_after_s)) {
      --ns;
    }
    while (sim::SimTime(ns).ToSeconds() < rule.arm_after_s) ++ns;
    next = std::min(next, sim::SimTime(ns));
  }
  return next;
}

FaultDecision FaultInjector::Evaluate(std::string_view point,
                                      std::string_view owner) {
  FaultDecision decision;
  for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
    const FaultRule& rule = plan_.rules[i];
    if (!Matches(rule, point, owner)) continue;
    if (sim_.Now().ToSeconds() < rule.arm_after_s) continue;
    if (fires_left_[i] == 0) continue;
    // The stream advances once per matching armed rule, never for unarmed
    // points — evaluations elsewhere cannot shift this rule's outcomes.
    if (!rng_.Bernoulli(rule.probability)) continue;

    if (fires_left_[i] > 0) --fires_left_[i];
    ++fires_by_point_[std::string(point)];
    ++total_fires_;
    if (rule.stall_s > 0) decision.stall += sim::Seconds(rule.stall_s);
    if (rule.fail && decision.status.ok()) {
      std::string msg = "injected fault at " + std::string(point);
      if (!owner.empty()) msg += " (" + std::string(owner) + ")";
      if (!rule.message.empty()) msg += ": " + rule.message;
      decision.status = Status(rule.code, std::move(msg));
    }
    obs::IncCounter(obs_, "swapserve_fault_injected_total",
                    {{"point", point}, {"owner", owner}});
    obs::Instant(obs_, {"fault:", point}, "fault",
                 owner.empty() ? point : owner,
                 {{"code", StatusCodeName(rule.code)},
                  {"stall_s", rule.stall_s}});
    SWAP_LOG(kInfo, "fault")
        << "injected " << point << (owner.empty() ? "" : " on ") << owner
        << " -> "
        << (rule.fail ? StatusCodeName(rule.code) : "stall")
        << (rule.stall_s > 0
                ? " (stall " + std::to_string(rule.stall_s) + "s)"
                : "");
  }
  return decision;
}

std::uint64_t FaultInjector::fires(std::string_view point) const {
  auto it = fires_by_point_.find(point);
  return it == fires_by_point_.end() ? 0 : it->second;
}

}  // namespace swapserve::fault
