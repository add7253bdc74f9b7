// Bounded retries with exponential backoff and jitter.
//
// The policy is data, not a loop: call sites keep their own control flow
// (the scheduler's swap-in loop, the model worker's requeue path) and
// consult the policy for "may I try again?" and "how long do I sleep
// first?". Jitter draws from a sim::Rng the caller owns, so retry timing
// is deterministic per seed and never perturbs runs in which no failure
// occurs.

#pragma once

#include "sim/random.h"
#include "sim/time.h"
#include "util/status.h"

namespace swapserve::fault {

// Codes worth retrying: transient by construction (kUnavailable, kAborted),
// or resolvable by the system's own machinery — kResourceExhausted clears
// when an eviction frees memory, kInternal covers a crashed engine the
// next swap-in restores. Permanent conditions (kInvalidArgument,
// kFailedPrecondition, kDataLoss, ...) are not.
bool IsRetryable(const Status& status);

// The defaults are the serving system's one policy: the scheduler's
// swap-in retries and the model worker's requeue backoff both use them.
struct RetryPolicy {
  int max_attempts = 3;  // total tries, including the first
  sim::SimDuration initial_backoff = sim::Millis(50);
  double multiplier = 2.0;
  sim::SimDuration max_backoff = sim::Seconds(2);
  double jitter = 0.2;  // +/- fraction applied uniformly to each backoff

  // True when `status` is retryable and fewer than max_attempts tries have
  // been made.
  bool ShouldRetry(const Status& status, int attempts_made) const;

  // Backoff before retry number `retry_index` (1 = first retry). The base
  // grows geometrically and clamps at max_backoff; jitter then scales it
  // by a uniform factor in [1 - jitter, 1 + jitter].
  sim::SimDuration BackoffBefore(int retry_index, sim::Rng& rng) const;
};

}  // namespace swapserve::fault
