#include "topo/interleave.h"

#include <gtest/gtest.h>

#include "common/units.h"

namespace pmemolap {
namespace {

InterleaveMap PaperMap() { return *InterleaveMap::Make(4 * kKiB, 6); }

TEST(InterleaveTest, MakeValidates) {
  EXPECT_FALSE(InterleaveMap::Make(0, 6).ok());
  EXPECT_FALSE(InterleaveMap::Make(3000, 6).ok());
  EXPECT_FALSE(InterleaveMap::Make(4096, 0).ok());
  EXPECT_TRUE(InterleaveMap::Make(4096, 6).ok());
}

TEST(InterleaveTest, GroupedSmallAccessCollapsesToOneDimm) {
  InterleaveMap map = PaperMap();
  // 36 threads x 64 B barely covers half a stripe: ~1.5 DIMMs busy — the
  // paper's "nearly all threads operate on the same DIMM".
  double dimms = map.ConcurrentDimms(36, 64, /*grouped=*/true);
  EXPECT_LT(dimms, 2.0);
  EXPECT_GE(dimms, 1.0);
}

TEST(InterleaveTest, Grouped4KReachesAllDimms) {
  InterleaveMap map = PaperMap();
  EXPECT_DOUBLE_EQ(map.ConcurrentDimms(36, 4 * kKiB, true), 6.0);
  EXPECT_DOUBLE_EQ(map.ConcurrentDimms(18, 4 * kKiB, true), 6.0);
}

TEST(InterleaveTest, GroupedMonotoneInAccessSize) {
  InterleaveMap map = PaperMap();
  double prev = 0.0;
  for (uint64_t size = 64; size <= 64 * kKiB; size *= 2) {
    double dimms = map.ConcurrentDimms(8, size, true);
    EXPECT_GE(dimms, prev);
    prev = dimms;
  }
}

TEST(InterleaveTest, IndividualIgnoresAccessSize) {
  InterleaveMap map = PaperMap();
  double at_64 = map.ConcurrentDimms(8, 64, false);
  double at_64k = map.ConcurrentDimms(8, 64 * kKiB, false);
  EXPECT_DOUBLE_EQ(at_64, at_64k);
}

TEST(InterleaveTest, IndividualMonotoneInThreads) {
  InterleaveMap map = PaperMap();
  double prev = 0.0;
  for (int threads : {1, 2, 4, 8, 16, 18, 36}) {
    double dimms = map.ConcurrentDimms(threads, 4 * kKiB, false);
    EXPECT_GT(dimms, prev) << threads;
    EXPECT_LE(dimms, 6.0);
    prev = dimms;
  }
}

TEST(InterleaveTest, IndividualHighThreadsSaturate) {
  InterleaveMap map = PaperMap();
  EXPECT_GT(map.ConcurrentDimms(18, 4 * kKiB, false), 5.5);
}

TEST(InterleaveTest, StreamCoverageWidensOccupancy) {
  InterleaveMap map = PaperMap();
  double narrow = map.ConcurrentDimms(4, 4 * kKiB, false, 1.3);
  double wide = map.ConcurrentDimms(4, 4 * kKiB, false, 5.0);
  EXPECT_GT(wide, narrow);
}

}  // namespace
}  // namespace pmemolap
