#include "core/runner.h"

#include <gtest/gtest.h>

#include <array>
#include <tuple>
#include <vector>

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

TEST_F(RunnerTest, MakeClassCarriesRunIndexAndInstruction) {
  RunOptions options;
  options.instruction = WriteInstruction::kClwb;
  auto cold = runner_.MakeClass(OpType::kWrite,
                                Pattern::kSequentialIndividual, Media::kPmem,
                                4096, 4, options);
  ASSERT_TRUE(cold.ok());
  // ToAccessClass warms the directory; the runner's default is a cold
  // first run.
  EXPECT_EQ(cold->run_index, 1);
  EXPECT_EQ(cold->instruction, WriteInstruction::kClwb);
  EXPECT_EQ(cold->region_bytes, options.region_bytes);

  options.run_index = 3;
  auto warm = runner_.MakeClass(OpType::kWrite,
                                Pattern::kSequentialIndividual, Media::kPmem,
                                4096, 4, options);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->run_index, 3);
}

TEST_F(RunnerTest, InvalidThreadCountPropagates) {
  RunOptions options;
  auto result = runner_.Bandwidth(OpType::kRead, Pattern::kRandom,
                                  Media::kPmem, 4096, 0, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // ToAccessClass would run zero threads as one; a sweep point must not.
  auto klass = runner_.MakeClass(OpType::kRead,
                                 Pattern::kSequentialIndividual, Media::kPmem,
                                 4096, 0, options);
  EXPECT_EQ(klass.status().code(), StatusCode::kInvalidArgument);
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

/// Evaluates one class per (thread socket, data socket, region id) the way
/// MultiSocket does: 4 KiB individual access, warm directory.
BandwidthResult EvaluateCross(const WorkloadRunner& runner, OpType op,
                              std::vector<std::array<int, 3>> classes,
                              int threads_per_socket) {
  WorkloadSpec spec;
  for (const auto& [thread_socket, data_socket, region_id] : classes) {
    RunOptions options;
    options.thread_socket = thread_socket;
    options.data_socket = data_socket;
    options.run_index = 2;
    auto klass = runner.MakeClass(op, Pattern::kSequentialIndividual,
                                  Media::kPmem, 4096, threads_per_socket,
                                  options);
    if (!klass.ok()) {
      ADD_FAILURE() << klass.status().ToString();
      return {};
    }
    klass->region_id = region_id;
    spec.classes.push_back(*klass);
  }
  return runner.model().EvaluateOnce(spec);
}

void ExpectSameResult(const BandwidthResult& actual,
                      const BandwidthResult& expected) {
  EXPECT_EQ(actual.total_gbps, expected.total_gbps);
  EXPECT_EQ(actual.upi_utilization, expected.upi_utilization);
  ASSERT_EQ(actual.per_class.size(), expected.per_class.size());
  for (size_t i = 0; i < actual.per_class.size(); ++i) {
    EXPECT_EQ(actual.per_class[i].gbps, expected.per_class[i].gbps) << i;
    EXPECT_EQ(actual.per_class[i].label, expected.per_class[i].label) << i;
  }
}

TEST_F(RunnerTest, MultiSocketAssignsEachConfigsRegionIds) {
  struct Case {
    MultiSocketConfig config;
    std::vector<std::array<int, 3>> classes;  // thread, data socket, region
  };
  const std::vector<Case> cases = {
      {MultiSocketConfig::kOneNear, {{0, 0, 0}}},
      {MultiSocketConfig::kOneFar, {{0, 1, 1}}},
      {MultiSocketConfig::kTwoNear, {{0, 0, 0}, {1, 1, 1}}},
      {MultiSocketConfig::kTwoFar, {{0, 1, 1}, {1, 0, 0}}},
      {MultiSocketConfig::kNearFarShared, {{0, 0, 0}, {1, 0, 0}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(MultiSocketConfigName(c.config));
    for (OpType op : {OpType::kRead, OpType::kWrite}) {
      auto result =
          runner_.MultiSocket(op, Media::kPmem, c.config, 18, 4096);
      ASSERT_TRUE(result.ok());
      ExpectSameResult(*result, EvaluateCross(runner_, op, c.classes, 18));
    }
  }
  // The shared region is what makes config (v) differ from two readers
  // of separate regions on socket 0.
  auto shared = runner_.MultiSocket(OpType::kRead, Media::kPmem,
                                    MultiSocketConfig::kNearFarShared, 18,
                                    4096);
  ASSERT_TRUE(shared.ok());
  EXPECT_NE(shared->total_gbps,
            EvaluateCross(runner_, OpType::kRead, {{0, 0, 0}, {1, 0, 1}}, 18)
                .total_gbps);
}

TEST_F(RunnerTest, MixedHasWriterThenReader) {
  auto result = runner_.Mixed(4, 18);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->per_class.size(), 2u);
  EXPECT_EQ(result->per_class[0].label, "write");
  EXPECT_EQ(result->per_class[1].label, "read");
  EXPECT_GT(result->per_class[0].gbps, 0.0);
  EXPECT_GT(result->per_class[1].gbps, 0.0);

  // The two classes are MakeClass's writers and readers on socket 0,
  // evaluated jointly on disjoint 40 GiB regions 0 and 1 of its DIMMs.
  RunOptions options;
  options.region_bytes = 40ULL * kGiB;
  WorkloadSpec spec;
  for (auto [op, threads, region_id, label] :
       {std::tuple{OpType::kWrite, 4, 0, "write"},
        std::tuple{OpType::kRead, 18, 1, "read"}}) {
    auto klass = runner_.MakeClass(op, Pattern::kSequentialIndividual,
                                   Media::kPmem, 4 * kKiB, threads, options);
    ASSERT_TRUE(klass.ok());
    klass->region_id = region_id;
    klass->label = label;
    spec.classes.push_back(*klass);
  }
  ExpectSameResult(*result, model_.EvaluateOnce(spec));
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
