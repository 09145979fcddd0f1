#include "service/degradation.h"

#include <cstdio>

#include "qos/admission.h"

namespace pmemolap::service {

const char* DegradationTierName(DegradationTier tier) {
  switch (tier) {
    case DegradationTier::kNormal:
      return "normal";
    case DegradationTier::kShedLowPriority:
      return "shed-low-priority";
    case DegradationTier::kBrownOut:
      return "brown-out";
    case DegradationTier::kPauseAndDrain:
      return "pause-and-drain";
  }
  return "unknown";
}

DegradationTier DegradationPolicy::TargetTier(double estimate) const {
  if (estimate < kPauseBelow) return DegradationTier::kPauseAndDrain;
  if (estimate < qos::kShedNormalBelow) return DegradationTier::kBrownOut;
  if (estimate < qos::kShedBatchBelow) return DegradationTier::kShedLowPriority;
  return DegradationTier::kNormal;
}

DegradationTier DegradationPolicy::Observe(double now_seconds,
                                           double estimate) {
  const DegradationTier target = TargetTier(estimate);
  const bool ready = hysteresis_.Ready(tier_, target, kHysteresisTicks);
  // Pause is the exception to hysteresis: a dead platform (crash window,
  // estimate ~0) must stop grants *now*, not two ticks from now.
  const bool immediate =
      target != tier_ && target == DegradationTier::kPauseAndDrain;
  if (immediate || ready) {
    char line[128];
    std::snprintf(line, sizeof(line), "t=%.6f %s -> %s estimate=%.6f",
                  now_seconds, DegradationTierName(tier_),
                  DegradationTierName(target), estimate);
    transitions_.emplace_back(line);
    tier_ = target;
    hysteresis_.Reset();
  }
  return tier_;
}

}  // namespace pmemolap::service
