#include "core/scheduler.h"

#include <gtest/gtest.h>

namespace pmemolap {
namespace {

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() : scheduler_(&model_) {}
  MemSystemModel model_;
  MixedWorkloadScheduler scheduler_;
};

TEST_F(SchedulerTest, ValidatesJobs) {
  MixedJobs jobs;
  jobs.read_bytes = 0;
  jobs.write_bytes = 1000;
  EXPECT_FALSE(scheduler_.Decide(jobs).ok());
  jobs.read_bytes = 1000;
  jobs.write_bytes = 0;
  EXPECT_FALSE(scheduler_.Decide(jobs).ok());
}

TEST_F(SchedulerTest, BalancedLargeJobsSerialize) {
  // The paper's own suggestion: balanced mixes harm both sides, so
  // latency-insensitive balanced jobs should serialize.
  MixedJobs jobs;
  jobs.read_bytes = 100ULL * 1000 * 1000 * 1000;
  jobs.write_bytes = 40ULL * 1000 * 1000 * 1000;
  jobs.read_threads = 30;
  jobs.write_threads = 6;
  auto decision = scheduler_.Decide(jobs);
  ASSERT_TRUE(decision.ok());
  EXPECT_TRUE(decision->serialize) << decision->rationale;
  EXPECT_LT(decision->serial_seconds, decision->mixed_seconds);
}

TEST_F(SchedulerTest, DecisionBackedByModelEvidence) {
  MixedJobs jobs;
  jobs.read_bytes = 10ULL * 1000 * 1000 * 1000;
  jobs.write_bytes = 10ULL * 1000 * 1000 * 1000;
  auto decision = scheduler_.Decide(jobs);
  ASSERT_TRUE(decision.ok());
  // Contended bandwidths are strictly below solo bandwidths (Fig. 11).
  EXPECT_LT(decision->read_mixed_gbps, decision->read_solo_gbps);
  EXPECT_LT(decision->write_mixed_gbps, decision->write_solo_gbps);
  EXPECT_GT(decision->serial_seconds, 0.0);
  EXPECT_GT(decision->mixed_seconds, 0.0);
  EXPECT_FALSE(decision->rationale.empty());
}

TEST_F(SchedulerTest, TinyWriteAlongsideHugeReadRunsMixed) {
  // A negligible write job barely dents the read bandwidth; paying a full
  // stop-the-reads phase for it is worse than overlapping.
  MixedJobs jobs;
  jobs.read_bytes = 200ULL * 1000 * 1000 * 1000;
  jobs.write_bytes = 100ULL * 1000 * 1000;  // 0.1 GB
  jobs.read_threads = 30;
  jobs.write_threads = 1;
  auto decision = scheduler_.Decide(jobs);
  ASSERT_TRUE(decision.ok());
  // The mixed penalty applies only while the tiny write drains, so the
  // two estimates are close; the scheduler must not wildly prefer either.
  EXPECT_NEAR(decision->mixed_seconds, decision->serial_seconds,
              decision->serial_seconds * 0.15)
      << decision->rationale;
}

TEST_F(SchedulerTest, MakespanAccountsForSurvivorSpeedup) {
  // After the shorter job drains, the survivor finishes at solo speed:
  // the mixed makespan must be below the naive "both at contended rates"
  // estimate.
  MixedJobs jobs;
  jobs.read_bytes = 100ULL * 1000 * 1000 * 1000;
  jobs.write_bytes = 5ULL * 1000 * 1000 * 1000;
  jobs.read_threads = 30;
  jobs.write_threads = 4;
  auto decision = scheduler_.Decide(jobs);
  ASSERT_TRUE(decision.ok());
  double naive = static_cast<double>(jobs.read_bytes) / 1e9 /
                 decision->read_mixed_gbps;
  EXPECT_LT(decision->mixed_seconds, naive);
}

}  // namespace
}  // namespace pmemolap
