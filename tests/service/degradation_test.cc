// DegradationPolicy: tier ladder mapping, hysteresis, pause fast-path,
// and agreement with the admission gate's shed thresholds.
#include "service/degradation.h"

#include <gtest/gtest.h>

#include "qos/admission.h"

namespace pmemolap::service {
namespace {

TEST(DegradationPolicyTest, TargetTierMapsThresholds) {
  DegradationPolicy policy;
  EXPECT_EQ(policy.TargetTier(1.0), DegradationTier::kNormal);
  EXPECT_EQ(policy.TargetTier(0.80), DegradationTier::kNormal);
  EXPECT_EQ(policy.TargetTier(0.60), DegradationTier::kShedLowPriority);
  EXPECT_EQ(policy.TargetTier(0.20), DegradationTier::kBrownOut);
  EXPECT_EQ(policy.TargetTier(0.01), DegradationTier::kPauseAndDrain);
  EXPECT_EQ(policy.TargetTier(0.0), DegradationTier::kPauseAndDrain);
}

TEST(DegradationPolicyTest, HysteresisHoldsOneTickBlips) {
  DegradationPolicy policy;  // kHysteresisTicks = 2
  EXPECT_EQ(policy.Observe(0.0, 1.0), DegradationTier::kNormal);
  // One degraded observation is not enough to commit...
  EXPECT_EQ(policy.Observe(1.0, 0.5), DegradationTier::kNormal);
  // ...and a recovery in between resets the streak.
  EXPECT_EQ(policy.Observe(2.0, 1.0), DegradationTier::kNormal);
  EXPECT_EQ(policy.Observe(3.0, 0.5), DegradationTier::kNormal);
  // Two consecutive requests commit the transition.
  EXPECT_EQ(policy.Observe(4.0, 0.5), DegradationTier::kShedLowPriority);
  EXPECT_TRUE(policy.transitions().size() == 1);
}

TEST(DegradationPolicyTest, PauseCommitsImmediately) {
  DegradationPolicy policy;
  EXPECT_EQ(policy.Observe(0.0, 1.0), DegradationTier::kNormal);
  // A dead platform (crash window reports 0.0) must not wait out the
  // hysteresis window before the service stops granting.
  EXPECT_EQ(policy.Observe(1.0, 0.0), DegradationTier::kPauseAndDrain);
  EXPECT_EQ(policy.tier(), DegradationTier::kPauseAndDrain);
  // A platform that stays dead holds the tier without a new transition.
  EXPECT_EQ(policy.Observe(2.0, 0.0), DegradationTier::kPauseAndDrain);
  EXPECT_EQ(policy.transitions().size(), 1u);
}

TEST(DegradationPolicyTest, RecoveryStepsBackDownWithHysteresis) {
  DegradationPolicy policy;
  policy.Observe(0.0, 0.0);  // pause, immediate
  EXPECT_EQ(policy.Observe(1.0, 1.0), DegradationTier::kPauseAndDrain);
  EXPECT_EQ(policy.Observe(2.0, 1.0), DegradationTier::kNormal);
  ASSERT_EQ(policy.transitions().size(), 2u);
}

TEST(DegradationPolicyTest, TransitionLogIsDeterministicText) {
  DegradationPolicy a;
  DegradationPolicy b;
  const double trace[] = {1.0, 0.9, 0.5, 0.5, 0.3, 0.3, 0.0, 0.8, 0.8};
  for (size_t i = 0; i < sizeof(trace) / sizeof(trace[0]); ++i) {
    a.Observe(static_cast<double>(i), trace[i]);
    b.Observe(static_cast<double>(i), trace[i]);
  }
  EXPECT_EQ(a.transitions(), b.transitions());
  ASSERT_FALSE(a.transitions().empty());
  // The log walks the whole ladder: shed, brown-out, pause, recovery.
  EXPECT_NE(a.transitions()[0].find("normal"), std::string::npos);
  EXPECT_NE(a.transitions().back().find("->"), std::string::npos);
}

TEST(DegradationPolicyTest, LadderStartsWhereTheGateSheds) {
  // Tier 1 refuses batch at the edge exactly when the gate has zeroed the
  // batch queue, and tier 2 starts exactly where the normal queue goes.
  DegradationPolicy policy;
  qos::AdmissionController gate;
  for (int step = 0; step <= 100; ++step) {
    const double estimate = step / 100.0;
    gate.SetLoadSignal({0, estimate});
    const DegradationTier tier = policy.TargetTier(estimate);
    EXPECT_EQ(tier >= DegradationTier::kShedLowPriority,
              gate.EffectiveQueueLimit(qos::QueryPriority::kBatch) == 0)
        << "estimate " << estimate;
    EXPECT_EQ(tier >= DegradationTier::kBrownOut,
              gate.EffectiveQueueLimit(qos::QueryPriority::kNormal) == 0)
        << "estimate " << estimate;
  }
}

TEST(DegradationPolicyTest, TierNamesAreStable) {
  EXPECT_STREQ(DegradationTierName(DegradationTier::kNormal), "normal");
  EXPECT_STREQ(DegradationTierName(DegradationTier::kPauseAndDrain),
               "pause-and-drain");
}

}  // namespace
}  // namespace pmemolap::service
