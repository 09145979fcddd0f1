#include "common/rng.h"

#include <gtest/gtest.h>

#include <vector>

namespace pmemolap {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextBelowStaysInBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  // Mean of uniform(0,1) ~ 0.5.
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, NextBoolRespectsProbability) {
  Rng rng(13);
  int trues = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.NextBool(0.25)) ++trues;
  }
  EXPECT_NEAR(static_cast<double>(trues) / 10000.0, 0.25, 0.03);
}

TEST(RngTest, ForkedStreamsAreIndependentAndDeterministic) {
  Rng root_a(99);
  Rng root_b(99);
  Rng child_a = root_a.Fork(5);
  Rng child_b = root_b.Fork(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(child_a.Next(), child_b.Next());
  }
  // A different stream id produces a different sequence.
  Rng other = Rng(99).Fork(6);
  Rng again = Rng(99).Fork(5);
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (other.Next() == again.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformityAcrossBuckets) {
  Rng rng(17);
  std::vector<int> buckets(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    buckets[rng.NextBelow(10)]++;
  }
  for (int count : buckets) {
    EXPECT_NEAR(count, draws / 10, draws / 100);
  }
}

}  // namespace
}  // namespace pmemolap
