#include "engine/timer.h"

#include <gtest/gtest.h>

namespace pmemolap {
namespace {

class TimerTest : public ::testing::Test {
 protected:
  TrafficRecord Scan(uint64_t bytes, int socket = 0, int threads = 18) {
    TrafficRecord record;
    record.op = OpType::kRead;
    record.pattern = Pattern::kSequentialIndividual;
    record.media = Media::kPmem;
    record.data_socket = socket;
    record.bytes = bytes;
    record.access_size = 4096;
    record.region_bytes = bytes;
    record.threads = threads;
    record.label = "scan";
    return record;
  }

  /// Seconds of `record` priced alone: a one-record profile, no CPU work.
  double Solo(const TrafficRecord& record, PinningPolicy pinning) {
    ExecutionProfile profile;
    profile.Record(record);
    return timer_.EstimateSecondsWithBackground(profile, CpuWork{},
                                                record.threads, pinning, {});
  }

  double Estimate(const ExecutionProfile& profile, const CpuWork& work,
                  int threads) {
    return timer_.EstimateSecondsWithBackground(profile, work, threads,
                                                PinningPolicy::kCores, {});
  }

  MemSystemModel model_;
  QueryTimer timer_{&model_};
};

TEST_F(TimerTest, ScanTimeMatchesModelBandwidth) {
  // 40 GB at the ~40 GB/s single-socket peak ~= 1 second.
  double seconds =
      Solo(Scan(40e9), PinningPolicy::kCores);
  EXPECT_NEAR(seconds, 1.0, 0.05);
}

TEST_F(TimerTest, EmptyRecordIsFree) {
  EXPECT_DOUBLE_EQ(Solo(Scan(0), PinningPolicy::kCores),
                   0.0);
}

TEST_F(TimerTest, SocketsRunInParallelWithinPhase) {
  ExecutionProfile profile;
  profile.Record(Scan(40e9, /*socket=*/0));
  profile.Record(Scan(40e9, /*socket=*/1));
  CpuWork no_cpu;
  double both = Estimate(profile, no_cpu, 36);
  // Two sockets scanning concurrently: ~1 s, not ~2 s.
  EXPECT_NEAR(both, 1.0, 0.1);
}

TEST_F(TimerTest, PhasesAreSequential) {
  ExecutionProfile profile;
  TrafficRecord a = Scan(40e9);
  a.label = "phase-a";
  TrafficRecord b = Scan(40e9);
  b.label = "phase-b";
  profile.Record(a);
  profile.Record(b);
  CpuWork no_cpu;
  double seconds = Estimate(profile, no_cpu, 36);
  EXPECT_NEAR(seconds, 2.0, 0.2);
}

TEST_F(TimerTest, CacheResidentRandomRegionIsNearlyFree) {
  TrafficRecord probe;
  probe.op = OpType::kRead;
  probe.pattern = Pattern::kRandom;
  probe.media = Media::kPmem;
  probe.bytes = 10e9;
  probe.access_size = 256;
  probe.region_bytes = kMiB;  // fits in the LLC
  probe.threads = 18;
  probe.label = "probe";
  TrafficRecord big_region = probe;
  big_region.region_bytes = 2 * kGiB;

  double cached = Solo(probe, PinningPolicy::kCores);
  double uncached = Solo(big_region, PinningPolicy::kCores);
  EXPECT_LT(cached, uncached * 0.1);
  EXPECT_GT(cached, 0.0);  // residual miss fraction
}

TEST_F(TimerTest, SequentialTrafficIgnoresCacheFilter) {
  // Streaming never fits the cache; region size must not change the time.
  TrafficRecord small_region = Scan(10e9);
  small_region.region_bytes = kMiB;
  TrafficRecord large_region = Scan(10e9);
  double a = Solo(small_region, PinningPolicy::kCores);
  double b = Solo(large_region, PinningPolicy::kCores);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST_F(TimerTest, CpuWorkDividesAcrossThreads) {
  ExecutionProfile empty;
  CpuWork work;
  work.tuples_scanned = 1'000'000'000;  // 15s at 15 ns single-thread
  double single = Estimate(empty, work, 1);
  double parallel = Estimate(empty, work, 36);
  EXPECT_NEAR(single, 15.0, 0.1);
  EXPECT_NEAR(parallel, 15.0 / 36, 0.05);
}

TEST_F(TimerTest, CpuWorkScaled) {
  CpuWork work;
  work.tuples_scanned = 100;
  work.probes = 10;
  work.agg_updates = 4;
  CpuWork scaled = work.Scaled(2.5);
  EXPECT_EQ(scaled.tuples_scanned, 250u);
  EXPECT_EQ(scaled.probes, 25u);
  EXPECT_EQ(scaled.agg_updates, 10u);
}

TEST_F(TimerTest, FarRecordSlowerThanNear) {
  TrafficRecord near_scan = Scan(10e9, /*socket=*/0);
  TrafficRecord far_scan = near_scan;
  far_scan.worker_socket = 1;  // workers on socket 1, data on socket 0
  double near_s = Solo(near_scan, PinningPolicy::kNumaRegion);
  double far_s = Solo(far_scan, PinningPolicy::kNumaRegion);
  EXPECT_GT(far_s, near_s * 1.1);
}

}  // namespace
}  // namespace pmemolap
