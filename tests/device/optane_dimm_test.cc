#include "device/optane_dimm.h"

#include <gtest/gtest.h>

namespace pmemolap {
namespace {

TEST(OptaneDimmTest, SocketAggregatesMatchPaperPeaks) {
  OptaneDimm dimm;
  // Six DIMMs per socket reproduce the paper's ~40 GB/s read and
  // ~12.6 GB/s write peaks.
  EXPECT_NEAR(dimm.spec().seq_read_gbps * 6, 40.5, 1.0);
  EXPECT_NEAR(dimm.spec().seq_write_gbps * 6, 12.6, 0.5);
}

TEST(OptaneDimmTest, SequentialReadsNeverAmplify) {
  OptaneDimm dimm;
  for (uint64_t size : {64ull, 128ull, 256ull, 4096ull}) {
    EXPECT_DOUBLE_EQ(dimm.ReadAmplification(size, /*sequential=*/true), 1.0)
        << size;
  }
}

TEST(OptaneDimmTest, RandomSubLineReadsAmplify) {
  OptaneDimm dimm;
  EXPECT_DOUBLE_EQ(dimm.ReadAmplification(64, false), 4.0);
  EXPECT_DOUBLE_EQ(dimm.ReadAmplification(128, false), 2.0);
  EXPECT_DOUBLE_EQ(dimm.ReadAmplification(256, false), 1.0);
  EXPECT_DOUBLE_EQ(dimm.ReadAmplification(4096, false), 1.0);
}

TEST(OptaneDimmTest, RandomUnalignedReadsRoundUpToLines) {
  OptaneDimm dimm;
  // 300 B random read loads two 256 B lines.
  EXPECT_NEAR(dimm.ReadAmplification(300, false), 512.0 / 300.0, 1e-9);
}

TEST(OptaneDimmTest, FullyCombinedSubLineWritesDoNotAmplify) {
  OptaneDimm dimm;
  EXPECT_DOUBLE_EQ(dimm.WriteAmplification(64, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(dimm.WriteAmplification(256, 0.0), 1.0);
}

TEST(OptaneDimmTest, UncombinedSubLineWritesPayReadModifyWrite) {
  OptaneDimm dimm;
  // RMW costs read + write of the 256 B line for a 64 B payload: 8x.
  EXPECT_DOUBLE_EQ(dimm.WriteAmplification(64, 0.0), 8.0);
  EXPECT_DOUBLE_EQ(dimm.WriteAmplification(128, 0.0), 4.0);
}

TEST(OptaneDimmTest, WriteAmplificationInterpolatesWithCombineFraction) {
  OptaneDimm dimm;
  double half = dimm.WriteAmplification(64, 0.5);
  EXPECT_DOUBLE_EQ(half, 0.5 * 1.0 + 0.5 * 8.0);
}

TEST(OptaneDimmTest, LineMultipleWritesNeverAmplify) {
  OptaneDimm dimm;
  EXPECT_DOUBLE_EQ(dimm.WriteAmplification(256, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(dimm.WriteAmplification(4096, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(dimm.WriteAmplification(64 * 1024, 0.0), 1.0);
}

TEST(OptaneDimmTest, PartialTailAmplifiesProportionally) {
  OptaneDimm dimm;
  // 4096 + 64: the 64 B tail pays RMW when not combined.
  double amp = dimm.WriteAmplification(4160, 0.0);
  EXPECT_GT(amp, 1.0);
  EXPECT_LT(amp, 1.2);
  EXPECT_DOUBLE_EQ(dimm.WriteAmplification(4160, 1.0), 1.0);
}

TEST(OptaneDimmTest, RandomSlowerThanSequential) {
  OptaneDimm dimm;
  EXPECT_LT(dimm.spec().random_read_gbps, dimm.spec().seq_read_gbps);
  EXPECT_LT(dimm.spec().random_write_gbps, dimm.spec().seq_write_gbps);
}

}  // namespace
}  // namespace pmemolap
