#include "common/stats.h"

#include <gtest/gtest.h>

namespace pmemolap {
namespace {

TEST(StatsTest, GeoMean) {
  EXPECT_DOUBLE_EQ(GeoMean({}), 0.0);
  EXPECT_NEAR(GeoMean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_NEAR(GeoMean({1.0, 1.0, 1.0}), 1.0, 1e-12);
}

TEST(StatsTest, PercentileEdges) {
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
  std::vector<double> values = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(Percentile(values, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 50), 3.0);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> values = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(Percentile(values, 25), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(values, 75), 7.5);
}

}  // namespace
}  // namespace pmemolap
