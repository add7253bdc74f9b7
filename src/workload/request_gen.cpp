#include "workload/request_gen.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/status.h"

namespace swapserve::workload {

RequestProfile::RequestProfile(std::string name, double prompt_median,
                               double prompt_sigma, double output_median,
                               double output_sigma, std::int64_t max_tokens)
    : name_(std::move(name)),
      prompt_mu_(std::log(prompt_median)),
      prompt_sigma_(prompt_sigma),
      output_mu_(std::log(output_median)),
      output_sigma_(output_sigma),
      max_tokens_(max_tokens) {
  SWAP_CHECK_MSG(prompt_median >= 1 && output_median >= 0, "bad medians");
  // A trace event stores its token counts in 32 bits.
  SWAP_CHECK_MSG(max_tokens_ <= INT32_MAX,
                 "RequestProfile: max_tokens must fit in 32 bits");
}

RequestProfile RequestProfile::Coding() {
  return RequestProfile("coding", /*prompt_median=*/1900, /*prompt_sigma=*/0.9,
                        /*output_median=*/140, /*output_sigma=*/0.8,
                        /*max_tokens=*/32768);
}

RequestProfile RequestProfile::Conversational() {
  return RequestProfile("conversational", /*prompt_median=*/220,
                        /*prompt_sigma=*/0.8, /*output_median=*/480,
                        /*output_sigma=*/0.7, /*max_tokens=*/8192);
}

RequestProfile RequestProfile::ShortQa() {
  return RequestProfile("short-qa", /*prompt_median=*/60, /*prompt_sigma=*/0.5,
                        /*output_median=*/90, /*output_sigma=*/0.5,
                        /*max_tokens=*/2048);
}

TokenSample RequestProfile::Sample(sim::Rng& rng) const {
  auto clip = [this](double v) {
    return std::clamp<std::int64_t>(static_cast<std::int64_t>(v), 1,
                                    max_tokens_);
  };
  return TokenSample{
      .prompt_tokens = clip(rng.LogNormal(prompt_mu_, prompt_sigma_)),
      .output_tokens = clip(rng.LogNormal(output_mu_, output_sigma_)),
  };
}

double RequestProfile::mean_prompt_tokens() const {
  return std::exp(prompt_mu_ + prompt_sigma_ * prompt_sigma_ / 2.0);
}

double RequestProfile::mean_output_tokens() const {
  return std::exp(output_mu_ + output_sigma_ * output_sigma_ / 2.0);
}

}  // namespace swapserve::workload
