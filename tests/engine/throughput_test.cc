// Tests for concurrent query streams (multi-user OLAP): the joint
// evaluation path of QueryTimer.
#include <gtest/gtest.h>

#include "engine/engine.h"

namespace pmemolap {
namespace {

class ThroughputTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new ssb::Database(*ssb::Generate({.scale_factor = 0.02,
                                            .seed = 23}));
    model_ = new MemSystemModel();
    EngineConfig config;
    config.mode = EngineMode::kPmemAware;
    config.media = Media::kPmem;
    config.threads = 36;
    config.project_to_sf = 100.0;
    engine_ = new SsbEngine(db_, model_, config);
    ASSERT_TRUE(engine_->Prepare().ok());
    run_ = new SsbEngine::QueryRun(*engine_->Execute(ssb::QueryId::kQ2_1));
    // Project manually for the timer calls (Execute already projected
    // seconds, but profile/cpu are at actual scale).
    factor_ = 100.0 / engine_->ActualScaleFactor();
  }
  static void TearDownTestSuite() {
    delete run_;
    delete engine_;
    delete model_;
    delete db_;
    run_ = nullptr;
    engine_ = nullptr;
    model_ = nullptr;
    db_ = nullptr;
  }

  static ssb::Database* db_;
  static MemSystemModel* model_;
  static SsbEngine* engine_;
  static SsbEngine::QueryRun* run_;
  static double factor_;
};

ssb::Database* ThroughputTest::db_ = nullptr;
MemSystemModel* ThroughputTest::model_ = nullptr;
SsbEngine* ThroughputTest::engine_ = nullptr;
SsbEngine::QueryRun* ThroughputTest::run_ = nullptr;
double ThroughputTest::factor_ = 0.0;

TEST_F(ThroughputTest, OneStreamMatchesSingleQueryEstimate) {
  QueryTimer timer(model_);
  ExecutionProfile projected = run_->profile.Scaled(factor_);
  CpuWork cpu = run_->cpu.Scaled(factor_);
  auto estimate = timer.EstimateConcurrentStreams(projected, cpu, 1, 36,
                                                  PinningPolicy::kCores);
  double single = timer.EstimateSecondsWithBackground(
      projected, cpu, 36, PinningPolicy::kCores, {});
  EXPECT_NEAR(estimate.stream_seconds, single, single * 0.05);
  EXPECT_NEAR(estimate.queries_per_hour, 3600.0 / single,
              3600.0 / single * 0.05);
}

TEST_F(ThroughputTest, StreamsSlowEachStreamDown) {
  QueryTimer timer(model_);
  ExecutionProfile projected = run_->profile.Scaled(factor_);
  CpuWork cpu = run_->cpu.Scaled(factor_);
  double prev = 0.0;
  for (int streams : {1, 2, 4}) {
    auto estimate = timer.EstimateConcurrentStreams(
        projected, cpu, streams, 36, PinningPolicy::kCores);
    EXPECT_GT(estimate.stream_seconds, prev) << streams;
    prev = estimate.stream_seconds;
  }
}

TEST_F(ThroughputTest, ThroughputSublinearInStreams) {
  // Adding streams cannot multiply throughput: the device pools are
  // shared. Queries/hour grows (or saturates) sublinearly.
  QueryTimer timer(model_);
  ExecutionProfile projected = run_->profile.Scaled(factor_);
  CpuWork cpu = run_->cpu.Scaled(factor_);
  auto one = timer.EstimateConcurrentStreams(projected, cpu, 1, 36,
                                             PinningPolicy::kCores);
  auto four = timer.EstimateConcurrentStreams(projected, cpu, 4, 36,
                                              PinningPolicy::kCores);
  EXPECT_LT(four.queries_per_hour, one.queries_per_hour * 4.0);
  EXPECT_GT(four.queries_per_hour, one.queries_per_hour * 0.5);
}

TEST_F(ThroughputTest, DramSustainsMoreConcurrency) {
  // DRAM's higher absolute bandwidth masks contention better (the paper's
  // §5.1 point about bandwidth saturation).
  EngineConfig dram_config = engine_->config();
  dram_config.media = Media::kDram;
  SsbEngine dram(db_, model_, dram_config);
  ASSERT_TRUE(dram.Prepare().ok());
  auto dram_run = dram.Execute(ssb::QueryId::kQ2_1);
  ASSERT_TRUE(dram_run.ok());

  QueryTimer timer(model_);
  auto pmem4 = timer.EstimateConcurrentStreams(
      run_->profile.Scaled(factor_), run_->cpu.Scaled(factor_), 4, 36,
      PinningPolicy::kCores);
  auto dram4 = timer.EstimateConcurrentStreams(
      dram_run->profile.Scaled(factor_), dram_run->cpu.Scaled(factor_), 4,
      36, PinningPolicy::kCores);
  EXPECT_GT(dram4.queries_per_hour, pmem4.queries_per_hour);
}

}  // namespace
}  // namespace pmemolap
