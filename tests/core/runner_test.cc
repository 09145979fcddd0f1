#include "core/runner.h"

#include <gtest/gtest.h>

namespace pmemolap {
namespace {

class RunnerTest : public ::testing::Test {
 protected:
  RunnerTest() : runner_(&model_) {}
  MemSystemModel model_;
  WorkloadRunner runner_;
};

TEST_F(RunnerTest, MakeClassDefaultsToNearAccess) {
  RunOptions options;
  auto klass = runner_.MakeClass(OpType::kRead,
                                 Pattern::kSequentialIndividual, Media::kPmem,
                                 4096, 8, options);
  ASSERT_TRUE(klass.ok());
  EXPECT_EQ(klass->placement.CountNear(), 8);
  EXPECT_EQ(klass->data_socket, 0);
  EXPECT_EQ(klass->access_size, 4096u);
}

TEST_F(RunnerTest, MakeClassFarPlacement) {
  RunOptions options;
  options.thread_socket = 0;
  options.data_socket = 1;
  auto klass = runner_.MakeClass(OpType::kRead,
                                 Pattern::kSequentialIndividual, Media::kPmem,
                                 4096, 8, options);
  ASSERT_TRUE(klass.ok());
  EXPECT_EQ(klass->placement.CountNear(), 0);
  for (const ThreadSlot& slot : klass->placement.slots) {
    EXPECT_EQ(slot.socket, 0);
  }
}

TEST_F(RunnerTest, InvalidThreadCountPropagates) {
  RunOptions options;
  auto result = runner_.Bandwidth(OpType::kRead, Pattern::kRandom,
                                  Media::kPmem, 4096, 0, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(RunnerTest, RunReturnsPerClassDiagnostics) {
  auto result = runner_.Run(OpType::kRead, Pattern::kSequentialIndividual,
                            Media::kPmem, 4096, 18, RunOptions());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->per_class.size(), 1u);
  EXPECT_NEAR(result->per_class[0].gbps, result->total_gbps, 1e-9);
}

TEST_F(RunnerTest, MultiSocketConfigNames) {
  EXPECT_STREQ(MultiSocketConfigName(MultiSocketConfig::kOneNear), "1 Near");
  EXPECT_STREQ(MultiSocketConfigName(MultiSocketConfig::kTwoFar), "2 Far");
  EXPECT_STREQ(MultiSocketConfigName(MultiSocketConfig::kNearFarShared),
               "1 Near 1 Far");
}

TEST_F(RunnerTest, MultiSocketClassCounts) {
  auto one = runner_.MultiSocket(OpType::kRead, Media::kPmem,
                                 MultiSocketConfig::kOneNear, 18, 4096);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->per_class.size(), 1u);
  auto two = runner_.MultiSocket(OpType::kRead, Media::kPmem,
                                 MultiSocketConfig::kTwoNear, 18, 4096);
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(two->per_class.size(), 2u);
}

TEST_F(RunnerTest, MultiSocketOneFarUsesUpi) {
  auto result = runner_.MultiSocket(OpType::kRead, Media::kPmem,
                                    MultiSocketConfig::kOneFar, 18, 4096);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->upi_utilization, 0.5);
  EXPECT_GT(result->per_class[0].upi_data_gbps, 0.0);
}

TEST_F(RunnerTest, MixedHasWriterThenReader) {
  auto result = runner_.Mixed(4, 18);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->per_class.size(), 2u);
  EXPECT_EQ(result->per_class[0].label, "write");
  EXPECT_EQ(result->per_class[1].label, "read");
  EXPECT_GT(result->per_class[0].gbps, 0.0);
  EXPECT_GT(result->per_class[1].gbps, 0.0);
}

TEST_F(RunnerTest, RunnerIsStateless) {
  // Two identical far runs through the runner yield identical results
  // (the runner uses EvaluateOnce; run_index carries warmth explicitly).
  RunOptions far;
  far.thread_socket = 0;
  far.data_socket = 1;
  double first = runner_
                     .Bandwidth(OpType::kRead, Pattern::kSequentialIndividual,
                                Media::kPmem, 4096, 18, far)
                     .value_or(0.0);
  double second = runner_
                      .Bandwidth(OpType::kRead,
                                 Pattern::kSequentialIndividual, Media::kPmem,
                                 4096, 18, far)
                      .value_or(0.0);
  EXPECT_DOUBLE_EQ(first, second);
}

}  // namespace
}  // namespace pmemolap
