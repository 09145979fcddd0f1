// Three-tier graceful degradation for the QueryService.
//
// The service never fails loudly while it can fail *small*: as the
// platform-health estimate (qos::DegradationEstimate — the same signal
// admission control sheds against) decays, the service steps down a
// ladder instead of letting every tenant time out:
//
//   tier 0  kNormal          full service
//   tier 1  kShedLowPriority batch submissions refused at the service
//                            edge (before admission even sees them)
//   tier 2  kBrownOut        + non-high queries routed to the degraded
//                            plan (fewer workers — same bit-identical
//                            answers, longer latency, less pressure on a
//                            throttled platform)
//   tier 3  kPauseAndDrain   + no new grants at all; in-flight work
//                            drains, waiters hold (crash recovery and
//                            dead-platform windows land here)
//
// Tiers 1 and 2 start where the admission gate zeroes the batch and the
// normal queues (qos::kShedBatchBelow, qos::kShedNormalBelow), so the
// ladder and the gate shed against one set of thresholds. Transitions
// apply hysteresis in profiler ticks — a tier change must be requested
// for kHysteresisTicks consecutive observations before it commits — so a
// noisy estimate cannot flap the service between tiers. Same estimate
// trace in, byte-identical transition log out.
#pragma once

#include <string>
#include <vector>

#include "common/debounce.h"

namespace pmemolap::service {

enum class DegradationTier {
  kNormal = 0,
  kShedLowPriority = 1,
  kBrownOut = 2,
  kPauseAndDrain = 3,
};

const char* DegradationTierName(DegradationTier tier);

/// Health estimate below which the service pauses grants and drains (a
/// crash window reports estimate 0.0 and always lands here).
inline constexpr double kPauseBelow = 0.05;
/// Consecutive ticks a tier change must persist before it commits.
inline constexpr int kHysteresisTicks = 2;

/// Deterministic tier ladder with hysteresis. One Observe() per profiler
/// tick; the committed tier is what the service enforces until the next
/// tick.
class DegradationPolicy {
 public:
  /// Ingests one health estimate at modeled time `now_seconds`; returns
  /// the committed tier after hysteresis.
  DegradationTier Observe(double now_seconds, double estimate);

  DegradationTier tier() const { return tier_; }

  /// Tier the raw estimate maps to, before hysteresis.
  DegradationTier TargetTier(double estimate) const;

  /// Append-only "t=<sec> <from> -> <to> estimate=<e>" lines; part of the
  /// determinism digest.
  const std::vector<std::string>& transitions() const { return transitions_; }

 private:
  DegradationTier tier_ = DegradationTier::kNormal;
  Debounce<DegradationTier> hysteresis_;
  std::vector<std::string> transitions_;
};

}  // namespace pmemolap::service
