#include "memsys/issue_model.h"

#include <gtest/gtest.h>

#include "memsys/mem_system.h"
#include "topo/pinning.h"

namespace pmemolap {
namespace {

class IssueModelTest : public ::testing::Test {
 protected:
  IssueModel model_;
};

TEST_F(IssueModelTest, PmemReadPerThreadCalibration) {
  // 8 threads reach ~85% of the 40 GB/s socket peak => ~4.4 GB/s each.
  double rate = model_.PerThread(OpType::kRead,
                                 Pattern::kSequentialIndividual, Media::kPmem,
                                 true, 4096);
  EXPECT_NEAR(rate * 8, 35.0, 2.0);
}

TEST_F(IssueModelTest, PmemWriteFourThreadsSaturate) {
  double rate = model_.PerThread(OpType::kWrite,
                                 Pattern::kSequentialIndividual, Media::kPmem,
                                 true, 4096);
  EXPECT_GE(rate * 4, 12.6);
  EXPECT_LT(rate * 3, 12.6);
}

TEST_F(IssueModelTest, FarRatesLowerThanNear) {
  for (OpType op : {OpType::kRead, OpType::kWrite}) {
    for (Media media : {Media::kPmem, Media::kDram}) {
      double near = model_.PerThread(op, Pattern::kSequentialIndividual,
                                     media, true, 4096);
      double far = model_.PerThread(op, Pattern::kSequentialIndividual,
                                    media, false, 4096);
      EXPECT_LT(far, near);
    }
  }
}

TEST_F(IssueModelTest, FarWritesNeedSixThreadsForCeiling) {
  // Paper §4.4: at least 6 threads to reach the ~7 GB/s far-write ceiling.
  double rate = model_.PerThread(OpType::kWrite,
                                 Pattern::kSequentialIndividual, Media::kPmem,
                                 false, 4096);
  EXPECT_LT(rate * 5, 7.0);
  EXPECT_GE(rate * 6, 7.0);
}

TEST_F(IssueModelTest, RandomSlowerThanSequentialPerThread) {
  double seq = model_.PerThread(OpType::kRead, Pattern::kSequentialIndividual,
                                Media::kPmem, true, 256);
  double rand = model_.PerThread(OpType::kRead, Pattern::kRandom,
                                 Media::kPmem, true, 256);
  EXPECT_LT(rand, seq);
}

TEST_F(IssueModelTest, RandomRateGrowsWithAccessSize) {
  double at_256 = model_.PerThread(OpType::kRead, Pattern::kRandom,
                                   Media::kPmem, true, 256);
  double at_4k = model_.PerThread(OpType::kRead, Pattern::kRandom,
                                  Media::kPmem, true, 4096);
  EXPECT_NEAR(at_4k / at_256, 2.0, 0.01);  // (4096/256)^0.25 = 2
  // Sub-line sizes do not get slower than the 256 B latency floor.
  double at_64 = model_.PerThread(OpType::kRead, Pattern::kRandom,
                                  Media::kPmem, true, 64);
  EXPECT_DOUBLE_EQ(at_64, at_256);
  // Boost is clamped.
  double huge = model_.PerThread(OpType::kRead, Pattern::kRandom,
                                 Media::kPmem, true, 1 << 20);
  EXPECT_DOUBLE_EQ(huge, at_256 * 3.0);
}

TEST_F(IssueModelTest, OversubscriptionAddsNoCapacity) {
  // On a socket of 4 logical CPUs the summed per-slot issue rate stays
  // below the device bound, so issue capacity decides the bandwidth: 8
  // workers time-slice the 4 CPUs and must get no more than the full
  // 4-worker placement. The check fails if the memory-system model stops
  // dividing its summed issue rates by the oversubscription.
  SystemTopology::Config small;
  small.physical_cores_per_numa_node = 1;
  MemSystemConfig config;
  config.topology = *SystemTopology::Make(small);
  MemSystemModel model(config);
  ThreadPlacer placer(config.topology);
  auto bandwidth = [&](int threads) {
    AccessClass klass;
    klass.op = OpType::kRead;
    klass.pattern = Pattern::kSequentialIndividual;
    klass.media = Media::kPmem;
    klass.access_size = 4096;
    klass.placement = *placer.Place(threads, PinningPolicy::kCores, 0);
    WorkloadSpec spec;
    spec.classes.push_back(klass);
    return model.EvaluateOnce(spec).total_gbps;
  };
  const double full = bandwidth(4);
  const double oversubscribed = bandwidth(8);
  EXPECT_GT(oversubscribed, 0.0);
  EXPECT_LE(oversubscribed, full * 1.01);
}

TEST_F(IssueModelTest, DramFasterThanPmemPerThread) {
  for (Pattern pattern :
       {Pattern::kSequentialIndividual, Pattern::kRandom}) {
    double pmem = model_.PerThread(OpType::kRead, pattern, Media::kPmem,
                                   true, 4096);
    double dram = model_.PerThread(OpType::kRead, pattern, Media::kDram,
                                   true, 4096);
    EXPECT_GT(dram, pmem);
  }
}

}  // namespace
}  // namespace pmemolap
