#include "fault/fault_injector.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/replicator.h"
#include "core/runner.h"
#include "fault/fault_spec.h"

namespace pmemolap {
namespace {

class FaultInjectorTest : public ::testing::Test {
 protected:
  SystemTopology topo_ = SystemTopology::PaperServer();
};

TEST_F(FaultInjectorTest, PresetsAreGraduated) {
  EXPECT_STREQ(FaultIntensityName(0), "healthy");
  EXPECT_STREQ(FaultIntensityName(4), "extreme");
  FaultSpec healthy = FaultSpec::Healthy();
  EXPECT_FALSE(healthy.InjectsPoison());
  EXPECT_EQ(healthy.alloc_failure_period, 0);
  EXPECT_EQ(healthy.alloc_failure_rate, 0.0);
  double previous = 0.0;
  for (int intensity = 1; intensity < kNumFaultIntensities; ++intensity) {
    FaultSpec spec = FaultSpec::Preset(intensity);
    EXPECT_TRUE(spec.InjectsPoison()) << intensity;
    EXPECT_GT(spec.poison_lines_per_mib, previous) << intensity;
    previous = spec.poison_lines_per_mib;
  }
}

TEST_F(FaultInjectorTest, PoisonLayoutIsDeterministicFromSeed) {
  auto layout_of = [&]() {
    FaultInjector injector(FaultSpec::Preset(4));
    PmemSpace space(topo_);
    injector.Arm(&space);
    std::vector<std::vector<uint64_t>> layout;
    for (int i = 0; i < 4; ++i) {
      Result<Allocation> region =
          space.Allocate(2 * kMiB, {Media::kPmem, i % 2});
      if (!region.ok()) {
        layout.push_back({~0ULL});  // failure schedule is part of the layout
        continue;
      }
      layout.push_back(region->PoisonedLinesIn(0, region->size()));
      space.Release(region.value());
    }
    return layout;
  };
  EXPECT_EQ(layout_of(), layout_of());
}

TEST_F(FaultInjectorTest, DramRegionsStayClean) {
  FaultInjector injector(FaultSpec::Preset(4));
  PmemSpace space(topo_);
  injector.Arm(&space);
  Result<Allocation> region = space.Allocate(4 * kMiB, {Media::kDram, 0});
  ASSERT_TRUE(region.ok());
  EXPECT_EQ(region->poisoned_line_count(), 0u);
}

TEST_F(FaultInjectorTest, PoisonTaggingMatchesReadChecks) {
  FaultSpec spec;
  spec.poison_lines_per_mib = 16.0;
  spec.transient_fraction = 0.0;
  FaultInjector injector(spec);
  PmemSpace space(topo_);
  injector.Arm(&space);
  Result<Allocation> region = space.Allocate(4 * kMiB, {Media::kPmem, 0});
  ASSERT_TRUE(region.ok());
  ASSERT_GT(region->poisoned_line_count(), 0u);
  std::vector<uint64_t> lines =
      region->PoisonedLinesIn(0, region->size());
  ASSERT_FALSE(lines.empty());
  // The read-time check flags a byte exactly when its line is tagged.
  const std::set<uint64_t> tagged(lines.begin(), lines.end());
  for (uint64_t probe = 0; probe < region->size() / kOptaneLineBytes;
       ++probe) {
    EXPECT_EQ(region->IsPoisoned(probe * kOptaneLineBytes, 1),
              tagged.count(probe) > 0)
        << probe;
  }
}

TEST_F(FaultInjectorTest, PeriodicAllocationFailuresAreInjected) {
  FaultSpec spec;
  spec.alloc_failure_period = 3;
  FaultInjector injector(spec);
  PmemSpace space(topo_);
  injector.Arm(&space);
  uint64_t available = space.AvailableBytes({Media::kPmem, 0});
  int failures = 0;
  for (int i = 1; i <= 9; ++i) {
    Result<Allocation> region = space.Allocate(kMiB, {Media::kPmem, 0});
    if (!region.ok()) {
      ++failures;
      EXPECT_EQ(region.status().code(), StatusCode::kUnavailable) << i;
      EXPECT_EQ(i % 3, 0) << "failures fire on the period";
    } else {
      space.Release(region.value());
    }
  }
  EXPECT_EQ(failures, 3);
  EXPECT_EQ(injector.counters().allocations_failed, 3u);
  // Vetoed allocations must not leak modeled capacity.
  EXPECT_EQ(space.AvailableBytes({Media::kPmem, 0}), available);
}

TEST_F(FaultInjectorTest, AllocationFailurePropagatesThroughReplicator) {
  FaultSpec spec;
  spec.alloc_failure_period = 1;  // every allocation fails
  FaultInjector injector(spec);
  PmemSpace space(topo_);
  injector.Arm(&space);
  DimensionReplicator replicator(&space);
  std::vector<std::byte> payload(512, std::byte{0x5A});
  Result<ReplicatedTable> table =
      replicator.Replicate(payload.data(), payload.size(), Media::kPmem);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kUnavailable);
}

TEST_F(FaultInjectorTest, ThrottleWindowsFollowPlatformTime) {
  FaultSpec spec;
  spec.throttle_windows.push_back({0, 10.0, 20.0, 0.5});
  spec.throttle_windows.push_back({0, 15.0, 30.0, 0.8});
  FaultInjector injector(spec);
  EXPECT_DOUBLE_EQ(injector.DimmServiceFactor(0), 1.0);
  injector.AdvanceTo(12.0);
  EXPECT_DOUBLE_EQ(injector.DimmServiceFactor(0), 0.5);
  EXPECT_DOUBLE_EQ(injector.DimmServiceFactor(1), 1.0);
  injector.AdvanceTo(17.0);  // overlapping windows: worst factor wins
  EXPECT_DOUBLE_EQ(injector.DimmServiceFactor(0), 0.5);
  injector.AdvanceTo(25.0);
  EXPECT_DOUBLE_EQ(injector.DimmServiceFactor(0), 0.8);
  injector.AdvanceTo(35.0);
  EXPECT_DOUBLE_EQ(injector.DimmServiceFactor(0), 1.0);
}

TEST_F(FaultInjectorTest, DegradedModelLosesBandwidth) {
  FaultSpec spec;
  spec.throttle_windows.push_back({0, 0.0, 100.0, 0.5});
  spec.upi_capacity_factor = 0.7;
  FaultInjector injector(spec);
  injector.AdvanceTo(5.0);

  MemSystemModel healthy;
  MemSystemConfig degraded_config = injector.Degrade(healthy.config());
  ASSERT_EQ(degraded_config.pmem_service_factor.size(), 2u);
  EXPECT_DOUBLE_EQ(degraded_config.pmem_service_factor[0], 0.5);
  EXPECT_DOUBLE_EQ(degraded_config.pmem_service_factor[1], 1.0);
  EXPECT_DOUBLE_EQ(degraded_config.upi_capacity_factor, 0.7);
  MemSystemModel degraded(degraded_config);

  WorkloadRunner healthy_runner(&healthy);
  WorkloadRunner degraded_runner(&degraded);
  auto bandwidth = [](WorkloadRunner& runner, RunOptions options) {
    Result<GigabytesPerSecond> bw =
        runner.Bandwidth(OpType::kRead, Pattern::kSequentialIndividual,
                         Media::kPmem, 4096, 18, options);
    EXPECT_TRUE(bw.ok());
    return bw.value_or(0.0);
  };
  // Socket 0 is throttled to half rate...
  double healthy_near = bandwidth(healthy_runner, RunOptions());
  double degraded_near = bandwidth(degraded_runner, RunOptions());
  EXPECT_NEAR(degraded_near, healthy_near * 0.5, healthy_near * 0.05);
  // ...and far traffic additionally feels the degraded UPI.
  RunOptions far;
  far.data_socket = 0;
  far.thread_socket = 1;
  double healthy_far = bandwidth(healthy_runner, far);
  double degraded_far = bandwidth(degraded_runner, far);
  EXPECT_LT(degraded_far, healthy_far * 0.75);
}

TEST_F(FaultInjectorTest, RecoverySecondsAccumulateFromCounters) {
  FaultSpec spec;
  spec.repair_gbps = 1.0;  // 1 GB/s: 1e9 bytes == 1 second
  FaultInjector injector(spec);
  EXPECT_DOUBLE_EQ(injector.ModeledRecoverySeconds(), 0.0);
  injector.CountRetry(500.0);
  injector.CountRetry(500.0);
  injector.CountRepair(1'000'000'000ULL);
  EXPECT_NEAR(injector.ModeledRecoverySeconds(), 1.001, 1e-9);
  FaultCounters counters = injector.counters();
  EXPECT_EQ(counters.retries, 2u);
  EXPECT_EQ(counters.chunks_repaired, 1u);
  EXPECT_EQ(counters.backoff_us, 1000u);
}

}  // namespace
}  // namespace pmemolap
